"""``hfjumps analyze`` output pinned byte for byte on a small fixed store.

Two symbols over five tested days, ticks from two exchanges with
simultaneous prints and one bounceback spike, and jumps of both signs,
so every table, the panel-dropped log and all four regression columns
are populated.  The expected files live in ``tests/data/analyze_tables``.
"""
import csv
import json
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from hfjumps.cli import main
from hfjumps.config import RunConfig
from hfjumps.pipeline import SCHEMA_VERSION

EXPECTED = Path(__file__).parent / "data" / "analyze_tables"
START = date(2021, 1, 4)       # a Monday
N_DAYS = 5
TICKS_PER_DAY = 400
# what detect writes beside each verdict at the default config
PROVENANCE = {"schema_version": SCHEMA_VERSION, "config_hash": RunConfig().hash(),
              "filter": {"sd_cutoff": RunConfig().sd_cutoff,
                         "reversal": RunConfig().bounceback_reversal}}

# (symbol, day index, hour, minute, size)
JUMPS = [
    ("BTC", 1, 14, 17, 0.03),
    ("BTC", 3, 3, 31, -0.06),
    ("ETH", 0, 9, 5, 0.12),
    ("ETH", 2, 20, 44, -0.04),
    ("ETH", 2, 22, 2, 0.25),
    ("ETH", 4, 1, 58, -0.3),
]


def _ns(d: date, hour: int = 0, minute: int = 0) -> int:
    midnight = int(datetime(d.year, d.month, d.day, tzinfo=timezone.utc).timestamp())
    return (midnight + 3600 * hour + 60 * minute) * 10 ** 9


def build_inputs(root: Path) -> tuple[Path, Path]:
    """Write the tick CSV, ingest it, and write the catalog; return (store, catalog)."""
    rng = np.random.default_rng(20210104)
    rows, records = [], []
    for symbol, level in (("BTC", 10.5), ("ETH", 7.0)):
        for i in range(N_DAYS):
            d = START + timedelta(days=i)
            secs = np.sort(rng.choice(86_400, TICKS_PER_DAY, replace=False))
            lp = level + np.cumsum(rng.normal(0.0, 0.002, TICKS_PER_DAY))
            if (symbol, i) == ("BTC", 2):
                lp[200] += 0.2                       # a bad print the filter drops
            for j, (s, x) in enumerate(zip(secs, lp)):
                ts = _ns(d) + int(s) * 10 ** 9
                rows.append((ts, "A", symbol, repr(float(np.exp(x)))))
                if j % 3 == 0:                       # a simultaneous second venue
                    rows.append((ts, "B", symbol,
                                 repr(float(np.exp(x + rng.normal(0, 1e-4))))))
            jumps = [{"utc_timestamp_ns": _ns(d, h, m), "size": size, "xi": 30.0,
                      "direction": "positive" if size > 0 else "negative"}
                     for sym, di, h, m, size in JUMPS if (sym, di) == (symbol, i)]
            records.append({"symbol": symbol, "date": d.isoformat(), "tested": True,
                            "reason": "", "close_log_price": float(lp[-1]),
                            # the filter drops the bad print
                            "n_points": TICKS_PER_DAY - ((symbol, i) == ("BTC", 2)),
                            "accepted_jumps": jumps, **PROVENANCE})
            level = float(lp[-1]) + sum(j["size"] for j in jumps)
    records.append({"symbol": "ETH", "date": (START + timedelta(days=N_DAYS)).isoformat(),
                    "tested": False, "reason": "frequency", "close_log_price": None,
                    "n_points": 0, "accepted_jumps": [], **PROVENANCE})

    ticks = root / "ticks.csv"
    with open(ticks, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "exchange", "symbol", "price"])
        w.writerows(rows)
    store = root / "store"
    assert main(["ingest", "--store", str(store), "--csv", str(ticks)]) == 0
    catalog = root / "catalog.jsonl"
    catalog.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    return store, catalog


def run_analyze(root: Path) -> Path:
    store, catalog = build_inputs(root)
    tables = root / "tables"
    assert main(["analyze", "--store", str(store), "--catalog", str(catalog),
                 "--out", str(tables)]) == 0
    return tables


def test_analyze_tables_match_pinned_files(tmp_path):
    tables = run_analyze(tmp_path)
    got = sorted(p.name for p in tables.iterdir())
    assert got == sorted(p.name for p in EXPECTED.iterdir())
    for name in got:
        assert (tables / name).read_bytes() == (EXPECTED / name).read_bytes(), name


def test_pinned_fixture_populates_every_table():
    reg = (EXPECTED / "regression.txt").read_text()
    for column in ("Jumps (all)", "Lagged jumps (all)", "Jumps (pos.)", "Jumps (neg.)"):
        assert column in reg
    assert (EXPECTED / "jump_size_summary.csv").exists()
    assert (EXPECTED / "panel_dropped.log").read_text().count("\n") == 2
    hf = list(csv.reader((EXPECTED / "returns_hf_summary.csv").open()))
    assert [r[0] for r in hf[1:]] == ["BTC", "ETH"]
