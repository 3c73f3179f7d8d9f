"""Command line: subcommands, exit codes, artifact determinism."""
import json
import logging

import pytest

from hfjumps.cli import main


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
        assert run("--config", str(cfg), "simulate", "--out", str(tmp_path / "o"),
                   "--days", "1") == 3
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [("--ajl-p", "5"), ("--ajl-kn", "1"),
                                   ("--sigma-rj-paths", "4"),
                                   ("--ajl-weights", "triangle/parabola")])
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


def test_detect_on_empty_store_exit_0(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    out = tmp_path / "catalog.jsonl"
    assert run("detect", "--store", str(store), "--out", str(out)) == 0
    assert out.read_text() == ""
    manifest = json.loads((tmp_path / "catalog.jsonl.manifest.json").read_text())
    assert manifest["completed_days"] == 0


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
    cfgblob = json.loads((report / "config.json").read_text())
    assert "config_hash" in cfgblob and cfgblob["config"]["alpha"] == 0.999
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
