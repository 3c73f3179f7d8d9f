"""Command line: subcommands, exit codes, artifact determinism."""
import argparse
import csv
import hashlib
import json
import logging
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from hfjumps.cli import BLAS_THREAD_VARS, _resolve_config, build_parser, main
from hfjumps.config import RunConfig
from hfjumps.tickstore import TickStore
from test_analyze_tables import EXPECTED as PINNED_TABLES, build_inputs


def run(*argv):
    return main(list(argv))


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("detect", "--store", "x", "--out", "y", "--no-such-flag")
    assert exc.value.code == 1


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 1


def test_bad_config_file_exit_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # events_file is not a config key: report takes --events
    for key in ("no_such_key", "events_file"):
        cfg.write_text(json.dumps({key: "events.csv"}))
        assert run("detect", "--config", str(cfg), "--store", str(tmp_path / "s"),
                   "--out", str(tmp_path / "o" / "catalog.jsonl")) == 3
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "s").exists() and not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ("ingest", "--store", "s", "--csv", "a.csv"), ("simulate", "--out", "o"),
    ("analyze", "--store", "s", "--catalog", "c.jsonl", "--out", "t"),
    ("report", "--catalog", "c.jsonl", "--out", "r")])
def test_only_detect_takes_a_config(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    for argv in (("--config", str(cfg), *command), (*command, "--config", str(cfg))):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 1


def test_every_detect_flag_sets_its_config_field():
    non_default = {"--alpha": 0.99, "--coverage": 0.9, "--sd-cutoff": 8.0,
                   "--dedup-window": 5, "--lm-C": 0.1, "--ajl-p": 6, "--ajl-kn": 50,
                   "--bonferroni": "corpus", "--sigma-rj-paths": 100, "--seed": 5}
    parser = build_parser()
    detect = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)).choices["detect"]
    options = {a.dest for a in detect._actions if a.option_strings} - {
        "help", "store", "out", "symbols", "date_from", "date_to", "config"}
    # a flag whose dest is not a field name would be silently ignored
    assert options <= set(RunConfig.field_names())
    fields = {detect._option_string_actions[flag].dest: value
              for flag, value in non_default.items()}
    assert set(fields) == options
    args = parser.parse_args(["detect", "--store", "s", "--out", "o", *(
        str(x) for item in non_default.items() for x in item)])
    cfg, default = _resolve_config(args), RunConfig()
    for name, value in fields.items():
        assert getattr(cfg, name) == value != getattr(default, name), name


@pytest.mark.parametrize("doc, field", [
    ({"ajl_kn": 100.0}, "ajl_kn"), ({"ajl_p": 4.0}, "ajl_p"),
    ({"ajl_kn": 50, "sigma_rj_paths": 16.0}, "sigma_rj_paths"),
    ({"sd_cutoff": True}, "sd_cutoff"), ({"dedup_window": 10.5}, "dedup_window"),
    ({"seed": 1.5}, "seed"), ({"alpha": "0.99"}, "alpha"),
    ({"bonferroni": None}, "bonferroni"),
    ({"sd_cutoff": float("nan")}, "sd_cutoff"), ({"sd_cutoff": float("inf")}, "sd_cutoff"),
    ({"lm_C": float("nan")}, "lm_C"), ({"lm_C": float("inf")}, "lm_C"),
    ({"lm_C": float("-inf")}, "lm_C"), ({"lm_C": 0}, "lm_C"), ({"lm_C": -0.05}, "lm_C"),
    ({"bounceback_reversal": float("nan")}, "bounceback_reversal"),
    ({"bounceback_reversal": float("inf")}, "bounceback_reversal"),
    ({"bounceback_reversal": float("-inf")}, "bounceback_reversal")])
def test_config_file_values_are_type_checked(spiked, tmp_path, capsys, doc, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out" / "catalog.jsonl"
    assert run("detect", "--store", str(spiked / "store"), "--config", str(cfg),
               "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith(f"config error: {field} must be ")
    assert not out.parent.exists()


def test_config_file_accepts_an_int_for_a_float_field(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sd_cutoff": 1000, "alpha": 0.99}))
    args = build_parser().parse_args(["detect", "--store", "s", "--out", "o",
                                      "--config", str(cfg), "--alpha", "0.9"])
    assert _resolve_config(args) == RunConfig(sd_cutoff=1000, alpha=0.9)


@pytest.mark.parametrize("flags", [("--ajl-p", "5"), ("--ajl-kn", "1"),
                                   ("--sigma-rj-paths", "4")])
def test_invalid_ajl_settings_exit_3_before_any_day(tmp_path, capsys, flags):
    store = small_store(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out" / "catalog.jsonl"
    assert run("detect", "--store", str(store), "--out", str(out), *flags) == 3
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.parent.exists()


def test_missing_csv_exit_2(tmp_path):
    assert run("ingest", "--store", str(tmp_path / "s"),
               "--csv", str(tmp_path / "absent.csv")) == 2


def test_ingest_missing_column_exit_1(tmp_path, capsys):
    path = tmp_path / "ticks.csv"
    path.write_text("time,exchange,price\n1614556800000000000,A,100.0\n")
    assert run("ingest", "--store", str(tmp_path / "s"), "--csv", str(path)) == 1
    err = capsys.readouterr().err
    assert err == f"error: column 'symbol' not found in {path}\n"


def test_ingest_rejects_a_nul_in_a_symbol_and_keeps_the_file(tmp_path, capsys):
    path = tmp_path / "ticks.csv"
    path.write_bytes(b"time,exchange,symbol,price\n"
                     b"1614556800000000000,A,BTC,100.0\n1614556801000000000,A,BT\0C,101.0\n")
    assert run("ingest", "--store", str(tmp_path / "s"), "--csv", str(path)) == 0
    assert capsys.readouterr().out.endswith("total: accepted=1 rejected=1\n")
    assert [p.name for p in (tmp_path / "s" / "ticks").iterdir()] == ["BTC"]


@pytest.mark.parametrize("body, message", [
    (b"time,exchange,symbol,price\n1614556800000000000,Bitst\xe9mp,BTC,100.0\n",
     "can't decode byte 0xe9"),
    (b'time,exchange,symbol,price\n1614556800000000000,"' + b"x" * 131_073
     + b'",BTC,100.0\n', "field larger than field limit"),
], ids=["not utf-8", "oversized cell"])
def test_ingest_of_an_unreadable_file_is_an_io_error_naming_it(tmp_path, capsys, body,
                                                                message):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("time,exchange,symbol,price\n1614556800000000000,A,BTC,100.0\n")
    bad.write_bytes(body)
    store = tmp_path / "s"
    assert run("ingest", "--store", str(store), "--csv", str(good), str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {bad}: not a readable UTF-8 CSV: ") and message in err
    digest = hashlib.sha256(good.read_bytes()).hexdigest()
    assert [p.name for p in (store / "sources").iterdir()] == [f"{digest}.json"]


def test_ingest_column_flags_map_renamed_headers(tmp_path):
    rows = [("1614556800000000000", "A", "BTC", "100.0"),
            ("1614556801000000000", "B", "BTC", "101.5"),
            ("1614556801000000000", "A", "BTC", "101.0")]
    default, renamed = tmp_path / "default.csv", tmp_path / "renamed.csv"
    default.write_text("time,exchange,symbol,price\n"
                       + "".join(",".join(r) + "\n" for r in rows))
    # renamed and reordered: price, time, symbol, exchange
    renamed.write_text("px,ts,pair,venue\n"
                       + "".join(",".join((r[3], r[0], r[2], r[1])) + "\n" for r in rows))
    assert run("ingest", "--store", str(tmp_path / "a"), "--csv", str(default)) == 0
    assert run("ingest", "--store", str(tmp_path / "b"), "--csv", str(renamed),
               "--col-time", "ts", "--col-exchange", "venue", "--col-symbol", "pair",
               "--col-price", "px") == 0
    day = date(2021, 3, 1)
    want, got = (TickStore(tmp_path / s).slice("BTC", day) for s in ("a", "b"))
    assert len(want) == 3
    for name in ("timestamps_ns", "exchanges", "prices"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_detect_on_old_csv_store_exit_2(tmp_path, capsys):
    store = tmp_path / "store"
    (store / "ticks" / "BTC").mkdir(parents=True)
    (store / "ticks" / "BTC" / "2021-03-01.csv").write_text("ts_ns,exchange,price\n")
    (store / "manifest.json").write_text('{"sources": {}, "version": 1}')
    assert run("detect", "--store", str(store), "--out", str(tmp_path / "c.jsonl")) == 2
    assert "ingest the source CSVs into a new store" in capsys.readouterr().err
    assert not (tmp_path / "c.jsonl").exists()


def test_simulate_deterministic_bytes(tmp_path):
    o1, o2 = tmp_path / "c1", tmp_path / "c2"
    for out in (o1, o2):
        assert run("simulate", "--out", str(out), "--days", "2", "--jumps", "0",
                   "--seed", "7", "--ticks-per-day", "600") == 0
    files1 = sorted(p.name for p in o1.iterdir())
    files2 = sorted(p.name for p in o2.iterdir())
    assert files1 == files2 and len(files1) == 3      # 2 days + truth.jsonl
    for name in files1:
        assert (o1 / name).read_bytes() == (o2 / name).read_bytes()


@pytest.mark.parametrize("flags, message", [
    (("--ticks-per-day", "1"), "need sigma >= 0, q >= 0, n >= 2"),
    (("--sigma", "-1"), "need sigma >= 0, q >= 0, n >= 2"),
    (("--jump-spread", "0"), "jump_spread_ticks must be >= 1"),
    (("--days", "-2"), "--days -2: need at least one day"),
    (("--exchanges", ","), "--exchanges ',': names no exchange"),
    (("--exchanges", "A,A"), "--exchanges 'A,A': repeats an exchange"),
], ids=["ticks-per-day 1", "sigma -1", "jump-spread 0", "days -2", "no exchange",
        "repeated exchange"])
def test_simulate_refuses_bad_flags_and_writes_nothing(tmp_path, capsys, flags, message):
    out = tmp_path / "corpus"
    assert run("simulate", "--out", str(out), "--days", "1", "--ticks-per-day", "600",
               *flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_detect_on_empty_store_exit_0(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    out = tmp_path / "catalog.jsonl"
    assert run("detect", "--store", str(store), "--out", str(out)) == 0
    assert out.read_text() == ""
    manifest = json.loads((tmp_path / "catalog.jsonl.manifest.json").read_text())
    assert manifest["completed_days"] == 0


@pytest.mark.parametrize("command", ["detect", "analyze"])
def test_missing_store_exit_2_and_creates_nothing(tmp_path, capsys, command):
    store = tmp_path / "absent"
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text("")
    out = {"detect": ["--out", str(tmp_path / "out" / "catalog.jsonl")],
           "analyze": ["--catalog", str(catalog), "--out", str(tmp_path / "out")]}[command]
    assert run(command, "--store", str(store), *out) == 2
    assert capsys.readouterr().err == f"i/o error: no tick store at {store}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["catalog.jsonl"]


def test_store_of_rejected_rows_reads_as_empty(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text("time,exchange,symbol,price\n1614556800000000000,A,BTC,0\n")
    store = tmp_path / "s"
    assert run("ingest", "--store", str(store), "--csv", str(path)) == 0
    assert [p.name for p in store.iterdir()] == ["sources"]
    out = tmp_path / "catalog.jsonl"
    assert run("detect", "--store", str(store), "--out", str(out)) == 0
    assert out.read_text() == ""


def small_store(tmp_path):
    corpus, store = tmp_path / "corpus", tmp_path / "store"
    assert run("simulate", "--out", str(corpus), "--days", "2", "--symbol", "BTC",
               "--seed", "4", "--ticks-per-day", "5760") == 0
    assert run("ingest", "--store", str(store),
               "--csv", *sorted(str(p) for p in corpus.glob("*.csv"))) == 0
    return store


def test_detect_creates_the_catalog_directory(tmp_path):
    store = small_store(tmp_path)
    out = tmp_path / "new" / "deeper" / "catalog.jsonl"
    assert run("detect", "--store", str(store), "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 2
    assert json.loads(out.with_name("catalog.jsonl.manifest.json").read_text())["complete"]


@pytest.fixture(scope="module")
def btc_store(tmp_path_factory):
    return small_store(tmp_path_factory.mktemp("btc"))


@pytest.mark.parametrize("flags, message", [
    (["--symbols", "NOPE"], "--symbols 'NOPE': not in the store: NOPE"),
    (["--symbols", "BTC,NOPE"], "--symbols 'BTC,NOPE': not in the store: NOPE"),
    (["--symbols", " , "], "--symbols ' , ': names no symbol"),
    (["--from", "2021-01-02", "--to", "2021-01-01"],
     "--from 2021-01-02 is after --to 2021-01-01"),
], ids=["unknown", "one-unknown", "none", "reversed-range"])
def test_detect_refuses_what_the_store_cannot_answer(btc_store, tmp_path, capsys,
                                                     flags, message):
    out = tmp_path / "out" / "catalog.jsonl"
    assert run("detect", "--store", str(btc_store), "--out", str(out), *flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_detect_tests_a_repeated_symbol_once(btc_store, tmp_path):
    out = tmp_path / "catalog.jsonl"
    assert run("detect", "--store", str(btc_store), "--out", str(out),
               "--symbols", "BTC,BTC", "--to", "2021-01-01") == 0
    assert [json.loads(line)["date"] for line in out.read_text().splitlines()] == [
        "2021-01-01"]


def test_detect_of_a_known_symbol_without_days_in_range_is_empty(btc_store, tmp_path,
                                                                 caplog):
    out = tmp_path / "catalog.jsonl"
    assert run("detect", "--store", str(btc_store), "--out", str(out),
               "--symbols", "BTC", "--from", "2021-02-01") == 0
    assert out.read_text() == ""
    assert json.loads(out.with_name("catalog.jsonl.manifest.json").read_text())["complete"]
    assert "no stored days to detect" in caplog.text


def test_verbose_detect_logs_the_calibration_source_per_day(tmp_path, caplog):
    store = small_store(tmp_path)
    caplog.set_level(logging.DEBUG, logger="hfjumps")

    def sources(*extra):
        caplog.clear()
        out = tmp_path / f"catalog{len(extra)}.jsonl"
        assert run("-v", "detect", "--store", str(store), "--out", str(out), *extra) == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["tested"] and "calibration" not in r["ajl"] for r in recs)
        return [r.getMessage() for r in caplog.records if "AJL null std from" in r.getMessage()]

    table = sources()
    assert [m.split(":")[0] for m in table] == ["BTC 2021-01-01", "BTC 2021-01-02"]
    assert all(" from table n=5760 node" in m for m in table)
    mc = sources("--ajl-kn", "50", "--sigma-rj-paths", "16")
    assert len(mc) == 2 and all(" from monte carlo key " in m for m in mc)
    assert mc[0].endswith(" miss")


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """simulate -> ingest -> detect -> analyze -> report, small corpus."""
    root = tmp_path_factory.mktemp("e2e")
    corpus = root / "corpus"
    assert run("simulate", "--out", str(corpus), "--days", "4", "--symbol", "BTC",
               "--jumps", "1.2", "--jump-size", "0.04", "--seed", "3",
               "--ticks-per-day", "17280", "--jump-spread", "25") == 0
    store = root / "store"
    csvs = sorted(str(p) for p in corpus.glob("*.csv"))
    assert run("ingest", "--store", str(store), "--csv", *csvs) == 0
    catalog = root / "catalog.jsonl"
    assert run("detect", "--store", str(store), "--out", str(catalog),
               "--sigma-rj-paths", "100") == 0
    tables = root / "tables"
    assert run("analyze", "--store", str(store), "--catalog", str(catalog),
               "--out", str(tables)) == 0
    report = root / "report"
    assert run("report", "--catalog", str(catalog), "--tables", str(tables),
               "--out", str(report)) == 0
    return root


def test_e2e_catalog_complete(e2e):
    lines = [json.loads(l) for l in (e2e / "catalog.jsonl").read_text().splitlines()]
    assert len(lines) == 4
    assert all(rec["tested"] for rec in lines)
    truth = [json.loads(l) for l in (e2e / "corpus" / "truth.jsonl").read_text().splitlines()]
    jump_days = {t["date"] for t in truth if t["true_jumps"]}
    detected = {rec["date"] for rec in lines if rec["accepted_jumps"]}
    # jump days with a sizeable injected jump should dominate detections
    assert detected <= {t["date"] for t in truth}
    assert len(detected & jump_days) >= max(0, len(jump_days) - 1)


def test_e2e_tables_exist(e2e):
    tables = e2e / "tables"
    for name in ("returns_hf_summary.csv", "returns_hf_summary.txt",
                 "extremes_hf.csv", "extremes_hf.txt",
                 "returns_daily_summary.csv", "returns_daily_summary.txt",
                 "extremes_daily.csv", "extremes_daily.txt",
                 "seasonality_weekday.csv", "seasonality_hour.csv",
                 "seasonality.txt", "panel.csv", "regression.txt",
                 "regression.csv", "tables_manifest.json"):
        assert (tables / name).exists(), name
    meta = json.loads((tables / "tables_manifest.json").read_text())
    assert meta["n_records"] == 4


def test_e2e_report_bundle(e2e):
    report = e2e / "report"
    assert (report / "catalog.jsonl").read_bytes() == (e2e / "catalog.jsonl").read_bytes()
    assert not (report / "config.json").exists()
    manifest = json.loads((report / "catalog.jsonl.manifest.json").read_text())
    assert manifest == json.loads((e2e / "catalog.jsonl.manifest.json").read_text())
    assert manifest["config"] == RunConfig(sigma_rj_paths=100).to_dict()
    assert manifest["config_hash"] == RunConfig(sigma_rj_paths=100).hash()
    timeline = (report / "timeline.csv").read_text().splitlines()
    assert timeline[0] == "date,n_jumps,event"
    # the packaged sample events appear as markers
    assert any("halving" in line.lower() for line in timeline)


def test_e2e_report_rerun_is_noop_on_content(e2e):
    report = e2e / "report"
    before = {p.name: p.read_bytes() for p in report.rglob("*") if p.is_file()}
    assert run("report", "--catalog", str(e2e / "catalog.jsonl"),
               "--tables", str(e2e / "tables"), "--out", str(report)) == 0
    after = {p.name: p.read_bytes() for p in report.rglob("*") if p.is_file()}
    assert before == after


def test_e2e_detect_rerun_identical(e2e):
    cat2 = e2e / "catalog2.jsonl"
    assert run("detect", "--store", str(e2e / "store"), "--out", str(cat2),
               "--sigma-rj-paths", "100") == 0
    assert cat2.read_bytes() == (e2e / "catalog.jsonl").read_bytes()


@pytest.fixture(scope="module")
def spiked(tmp_path_factory):
    """Two 15-s days, the second holding one +5% print, detected one day at a
    time: day 1 at the defaults, day 2 at ``--sd-cutoff 1000``, which keeps
    the print."""
    root = tmp_path_factory.mktemp("spiked")
    corpus, store = root / "corpus", root / "store"
    assert run("simulate", "--out", str(corpus), "--days", "2", "--symbol", "BTC",
               "--seed", "4", "--ticks-per-day", "5760") == 0
    day2 = corpus / "ticks_BTC_2021-01-02.csv"
    lines = day2.read_text().splitlines()
    time, exchange, symbol, price = lines[3000].split(",")
    lines[3000] = ",".join((time, exchange, symbol, repr(float(price) * 1.05)))
    day2.write_text("\n".join(lines) + "\n")
    assert run("ingest", "--store", str(store),
               "--csv", *sorted(str(p) for p in corpus.glob("*.csv"))) == 0
    parts = []
    for day, extra in (("2021-01-01", ()), ("2021-01-02", ("--sd-cutoff", "1000"))):
        out = root / day / "catalog.jsonl"
        assert run("detect", "--store", str(store), "--out", str(out),
                   "--from", day, "--to", day, *extra) == 0
        parts.append(out.read_text())
    # concatenated as a daily job appends its per-day catalogs: no manifest
    (root / "catalog.jsonl").write_text("".join(parts))
    return root


def test_tables_follow_each_records_filter_settings(spiked, tmp_path):
    recs = [json.loads(line) for line in (spiked / "catalog.jsonl").read_text().splitlines()]
    assert [(r["tested"], r["n_removed"]) for r in recs] == [(True, 0), (True, 0)]
    assert [r["filter"]["sd_cutoff"] for r in recs] == [10.0, 1000.0]
    tables = tmp_path / "tables"
    assert run("analyze", "--store", str(spiked / "store"),
               "--catalog", str(spiked / "catalog.jsonl"), "--out", str(tables)) == 0
    [hf] = csv.DictReader((tables / "returns_hf_summary.csv").open())
    assert int(hf["n"]) == sum(r["n_points"] - 1 for r in recs)
    assert float(hf["max"]) > 0.04                # the kept print
    meta = json.loads((tables / "tables_manifest.json").read_text())
    assert meta["config_hashes"] == sorted({r["config_hash"] for r in recs})
    assert len(meta["config_hashes"]) == 2 and meta["schema_version"] == 3


def test_detect_manifest_holds_the_config(spiked):
    manifest = json.loads((spiked / "2021-01-02" / "catalog.jsonl.manifest.json").read_text())
    cfg = RunConfig(sd_cutoff=1000.0)
    assert manifest["config"] == cfg.to_dict() and manifest["config_hash"] == cfg.hash()


def test_analyze_exits_2_when_the_store_lacks_a_tested_day(spiked, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    tables = tmp_path / "tables"
    assert run("analyze", "--store", str(empty), "--catalog", str(spiked / "catalog.jsonl"),
               "--out", str(tables)) == 2
    n_points = json.loads((spiked / "catalog.jsonl").read_text().splitlines()[0])["n_points"]
    assert capsys.readouterr().err.startswith(
        f"i/o error: BTC 2021-01-01: the store gives 0 filtered points, "
        f"the catalog records {n_points}")
    assert not tables.exists()


def test_analyze_exits_2_on_a_record_without_filter_settings(spiked, tmp_path, capsys):
    recs = [json.loads(line) for line in (spiked / "catalog.jsonl").read_text().splitlines()]
    del recs[1]["filter"]
    recs[1]["schema_version"] = 2
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text("".join(json.dumps(r) + "\n" for r in recs))
    tables = tmp_path / "tables"
    assert run("analyze", "--store", str(spiked / "store"), "--catalog", str(catalog),
               "--out", str(tables)) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: BTC 2021-01-02: ") and "rerun detect" in err
    assert not tables.exists()


def test_truncated_catalog_line_is_an_io_error(spiked, tmp_path, capsys):
    catalog = tmp_path / "catalog.jsonl"
    text = (spiked / "catalog.jsonl").read_text()
    catalog.write_text(text + text.splitlines()[0][:40])     # an interrupted write
    for argv in (("analyze", "--store", str(spiked / "store"), "--out", str(tmp_path / "t")),
                 ("report", "--out", str(tmp_path / "r"))):
        assert run(argv[0], "--catalog", str(catalog), *argv[1:]) == 2
        assert capsys.readouterr().err.startswith(f"i/o error: {catalog} line 3: ")


NO_VERSION = "not a catalog record (no schema_version)"


@pytest.mark.parametrize("case", ["truth file", "a list", "a string", "no schema_version",
                                  "not utf-8"])
def test_a_file_that_is_not_a_catalog_is_an_io_error(spiked, tmp_path, capsys, case):
    records = (spiked / "catalog.jsonl").read_bytes()
    text, line, message = {
        "truth file": ((spiked / "corpus" / "truth.jsonl").read_bytes(), 1, NO_VERSION),
        "a list": (b"[1, 2]\n", 1, NO_VERSION),
        "a string": (b'"x"\n', 1, NO_VERSION),
        "no schema_version": (records + b'{"symbol": "BTC"}\n', 3, NO_VERSION),
        "not utf-8": (records + b'{"symbol": "Bitst\xe9mp"}\n', 3, "not a JSON record: "),
    }[case]
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_bytes(text)
    for argv in (("analyze", "--store", str(spiked / "store"), "--out", str(tmp_path / "t")),
                 ("report", "--out", str(tmp_path / "r"))):
        assert run(argv[0], "--catalog", str(catalog), *argv[1:]) == 2
        assert capsys.readouterr().err.startswith(f"i/o error: {catalog} line {line}: {message}")
    assert [p.name for p in tmp_path.iterdir()] == ["catalog.jsonl"]


@pytest.mark.parametrize("events, message", [
    ("utc_instant,label\n2020-05-11T19:30:00Z,ok\n2020-13-01,bad month\n",
     "line 3: unparseable timestamp '2020-13-01'"),
    ("label,utc_instant\nno time\n", "line 2: unparseable timestamp ''"),  # a short row
    ("when,label\n2020-05-11T19:30:00Z,ok\n", "line 1: no column ['utc_instant']"),
])
def test_malformed_events_file_is_an_io_error(spiked, tmp_path, capsys, events, message):
    path = tmp_path / "events.csv"
    path.write_text(events)
    assert run("report", "--catalog", str(spiked / "catalog.jsonl"),
               "--events", str(path), "--out", str(tmp_path / "r")) == 2
    assert capsys.readouterr().err == f"i/o error: {path} {message}\n"


# ---------------------------------------------------------------------------
# process start-up: the modules each command loads, one BLAS thread, and
# artifacts that do not depend on the thread count
# ---------------------------------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_env(**overrides):
    """This environment with the package sources on the path, the BLAS
    thread variables removed, and then ``overrides`` set."""
    env = {k: v for k, v in os.environ.items()
           if k not in (*BLAS_THREAD_VARS, "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return {**env, **overrides}


# PRELUDE, then main(argv), then one JSON line: what the prelude put in
# ``seen``, and what the process loaded, set and runs
FRESH_MAIN = """
import json, os, sys
seen = {}
PRELUDE
from hfjumps.cli import BLAS_THREAD_VARS, main
environ = dict(os.environ)
seen["rc"] = main(json.loads(sys.argv[1]))
seen["environ_unchanged"] = dict(os.environ) == environ
seen["hfjumps"] = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("hfjumps."))
seen["scipy"] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
seen["numpy_ma"] = "numpy.ma" in sys.modules
seen["numpy_polynomial"] = "numpy.polynomial" in sys.modules
seen["env"] = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
tasks = "/proc/self/task"
seen["threads"] = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps(seen))
"""


def fresh_main(prelude, argv, env=None):
    """``FRESH_MAIN`` in a fresh interpreter; the JSON it prints."""
    code = FRESH_MAIN.replace("PRELUDE", prelude)
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                          env=fresh_env() if env is None else env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["rc"] == 0
    return seen


@pytest.fixture(scope="module")
def startup_inputs(tmp_path_factory):
    """The pinned analyze inputs (tick CSV, store, catalog) and a store
    holding one simulated 5-s day."""
    root = tmp_path_factory.mktemp("startup")
    (root / "pinned").mkdir()
    store, catalog = build_inputs(root / "pinned")
    corpus = root / "corpus"
    assert run("simulate", "--out", str(corpus), "--days", "1", "--symbol", "BTC",
               "--seed", "3") == 0
    assert run("ingest", "--store", str(root / "sim_store"),
               "--csv", *sorted(str(p) for p in corpus.glob("*.csv"))) == 0
    return {"ticks": root / "pinned" / "ticks.csv", "store": store,
            "catalog": catalog, "sim_store": root / "sim_store"}


READ_PATH = {"errors", "pipeline", "preprocess", "tickstore"}
COMMAND_MODULES = {
    # none of ajl, analytics, config, lee_mykland, pipeline, preprocess or
    # simulate
    "ingest": {"errors", "tickstore"},
    "simulate": {"errors", "simulate"},
    "detect": READ_PATH | {"ajl", "config", "lee_mykland"},
    # the catalog and store readers only: neither jump test, no config
    "analyze": READ_PATH | {"analytics"},
    "report": READ_PATH,
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_uses(startup_inputs, tmp_path, command):
    """In a fresh process: ``import hfjumps`` and ``import hfjumps.cli`` load
    no numpy, a command loads only its own modules, and none loads scipy or
    ``numpy.ma`` (which ``np.median`` and ``np.percentile`` import) or
    ``numpy.polynomial``."""
    inp = startup_inputs
    argv = {
        "ingest": ["ingest", "--store", str(tmp_path / "store"), "--csv", str(inp["ticks"])],
        "simulate": ["simulate", "--out", str(tmp_path / "corpus"), "--days", "1",
                     "--ticks-per-day", "500"],
        # a k_n the null-std table does not cover: the Monte-Carlo fallback runs
        "detect": ["detect", "--store", str(inp["sim_store"]),
                   "--out", str(tmp_path / "catalog.jsonl"),
                   "--ajl-kn", "20", "--sigma-rj-paths", "8"],
        "analyze": ["analyze", "--store", str(inp["store"]), "--catalog", str(inp["catalog"]),
                    "--out", str(tmp_path / "tables")],
        "report": ["report", "--catalog", str(inp["catalog"]), "--out", str(tmp_path / "r")],
    }[command]
    seen = fresh_main("import hfjumps\n"
                      "seen['numpy_after_package'] = 'numpy' in sys.modules\n"
                      "import hfjumps.cli\n"
                      "seen['numpy_after_cli'] = 'numpy' in sys.modules",
                      argv)
    assert not seen["numpy_after_package"] and not seen["numpy_after_cli"]
    assert set(seen["hfjumps"]) == {"cli"} | COMMAND_MODULES[command]
    assert seen["scipy"] == []
    assert not seen["numpy_ma"]
    assert not seen["numpy_polynomial"]
    if command == "detect":
        recs = [json.loads(l) for l in (tmp_path / "catalog.jsonl").read_text().splitlines()]
        assert len(recs) == 1 and recs[0]["tested"]
    if command == "analyze":
        # every regression column was estimated, so every p-value was computed
        rows = list(csv.DictReader((tmp_path / "tables" / "regression.csv").open()))
        assert len(rows) == 4 and all(0.0 < float(r["p"]) < 1.0 for r in rows)


@pytest.mark.parametrize("case", ["unset", "explicit", "numpy_first"])
def test_cli_processes_default_to_one_blas_thread(tmp_path, case):
    argv = ["simulate", "--out", str(tmp_path / "corpus"), "--days", "1",
            "--ticks-per-day", "500"]
    env = fresh_env(OPENBLAS_NUM_THREADS="2") if case == "explicit" else None
    seen = fresh_main("import numpy" if case == "numpy_first" else "", argv, env)
    if case == "numpy_first":
        # numpy has read its settings already: main changes nothing
        assert seen["environ_unchanged"]
        assert seen["env"] == dict.fromkeys(BLAS_THREAD_VARS)
        return
    expected = dict.fromkeys(BLAS_THREAD_VARS, "1")
    if case == "explicit":
        expected["OPENBLAS_NUM_THREADS"] = "2"
    assert seen["env"] == expected
    if case == "unset":
        if seen["threads"] is None:
            pytest.skip("no /proc/self/task to count the process's threads")
        assert seen["threads"] == 1


def test_catalog_bytes_do_not_depend_on_the_blas_thread_count(startup_inputs, tmp_path):
    """simulate -> ingest -> detect -> analyze on a 1-s day, and analyze on
    the pinned inputs, in fresh processes pinned to at most 2 CPUs, with
    OPENBLAS_NUM_THREADS unset, 1 and 2.  Reductions over the ~86,400 ticks
    of such a day must not go through threaded BLAS, whose summation order
    follows the thread count.  analyze's regression still multiplies
    matrices through BLAS; its tables must not change either."""
    cpus = sorted(os.sched_getaffinity(0))[:2]

    def cli(env, *argv):
        proc = subprocess.run([sys.executable, "-m", "hfjumps.cli", *argv],
                              capture_output=True, text=True, env=env,
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        assert proc.returncode == 0, proc.stderr

    def tree(path):
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}

    artifacts = {}
    for threads in (None, "1", "2"):
        env = fresh_env() if threads is None else fresh_env(OPENBLAS_NUM_THREADS=threads)
        root = tmp_path / str(threads)
        cli(env, "simulate", "--out", str(root / "corpus"), "--days", "1",
            "--symbol", "BTC", "--ticks-per-day", "86400", "--seed", "2")
        cli(env, "ingest", "--store", str(root / "store"),
            "--csv", *sorted(str(p) for p in (root / "corpus").glob("*.csv")))
        cli(env, "detect", "--store", str(root / "store"),
            "--out", str(root / "catalog.jsonl"))
        cli(env, "analyze", "--store", str(root / "store"),
            "--catalog", str(root / "catalog.jsonl"), "--out", str(root / "tables"))
        cli(env, "analyze", "--store", str(startup_inputs["store"]),
            "--catalog", str(startup_inputs["catalog"]), "--out", str(root / "pinned"))
        assert tree(root / "pinned") == tree(PINNED_TABLES)
        artifacts[threads] = ((root / "catalog.jsonl").read_bytes(), tree(root / "tables"))
    assert json.loads(artifacts[None][0])["tested"]
    assert artifacts[None] == artifacts["1"] == artifacts["2"]
