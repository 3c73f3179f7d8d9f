"""Tick ingestion, partitioning, and slicing."""
import csv
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfjumps import tickstore
from hfjumps.tickstore import (CsvSchema, TickStore, parse_epoch_ns,
                               parse_iso_ns, utc_date)

DAY_NS = 86_400 * 10 ** 9
T0 = 1_614_556_800_000_000_000   # 2021-03-01T00:00:00Z


def write_csv(path, rows, header=("time", "exchange", "symbol", "price")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# timestamp parsing
# ---------------------------------------------------------------------------

def test_parse_iso_variants():
    assert parse_iso_ns("2021-03-01T00:00:00Z") == T0
    assert parse_iso_ns("2021-03-01 00:00:00+00:00") == T0
    assert parse_iso_ns("2021-03-01T00:00:01.5Z") == T0 + 1_500_000_000
    # sub-nanosecond digits truncate, never round
    assert parse_iso_ns("2021-03-01T00:00:00.1234567899Z") == T0 + 123_456_789
    # non-UTC offset converts
    assert parse_iso_ns("2021-03-01T01:00:00+01:00") == T0


def test_parse_iso_rejects_garbage():
    for bad in ("not-a-time", "2021-13-01T00:00:00Z", "2021-03-01", ""):
        with pytest.raises(ValueError):
            parse_iso_ns(bad)


def test_parse_epoch_ns():
    assert parse_epoch_ns(str(T0)) == T0
    with pytest.raises(ValueError):
        parse_epoch_ns("12.5")


def test_utc_date_last_nanosecond_of_day():
    # 1 ns before midnight is below the float spacing of 256 ns at this epoch
    assert utc_date(parse_iso_ns("2021-01-01T23:59:59.999999999Z")) == date(2021, 1, 1)
    assert utc_date(parse_iso_ns("2021-01-02T00:00:00Z")) == date(2021, 1, 2)
    assert utc_date(T0 - 1) == date(2021, 2, 28)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_clean_file(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(path, [[T0, "A", "BTC", "100.0"],
                     [T0 + 10 ** 9, "A", "BTC", "101.0"],
                     [T0 + 2 * 10 ** 9, "A", "BTC", "102.0"]])
    store = TickStore(tmp_path / "store")
    rep = store.ingest_csv(path)
    assert (rep.accepted, rep.rejected) == (3, 0)
    assert rep.timestamp_format == "epoch_ns"


def test_ingest_rejects_nonpositive_price(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(path, [[T0, "A", "BTC", "0"]])
    rep = TickStore(tmp_path / "store").ingest_csv(path)
    assert (rep.accepted, rep.rejected) == (0, 1)
    assert rep.reject_log[0][1] == "non-positive price"


def test_ingest_1000_rows_with_bad_timestamps_idempotent(tmp_path):
    # construct the file programmatically: 990 good rows, 10 garbage stamps
    rows = []
    bad_lines = set(range(100, 1000, 90))     # 10 rows
    for i in range(1000):
        t = "garbage" if i in bad_lines else str(T0 + i * 10 ** 6)
        rows.append([t, "A", "BTC", "100.0"])
    assert len(bad_lines) == 10
    path = tmp_path / "in.csv"
    write_csv(path, rows)
    store = TickStore(tmp_path / "store")
    rep1 = store.ingest_csv(path)
    assert (rep1.accepted, rep1.rejected) == (990, 10)
    rep2 = store.ingest_csv(path)
    assert (rep2.accepted, rep2.rejected) == (990, 10)
    assert rep2.already_ingested
    # no duplicates: the slice holds exactly 990 ticks
    assert len(store.slice("BTC", date(2021, 3, 1))) == 990


def test_ingest_iso_timestamps_detected(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(path, [["2021-03-01T00:00:00Z", "A", "BTC", "100.0"]])
    rep = TickStore(tmp_path / "store").ingest_csv(path)
    assert rep.timestamp_format == "iso8601"
    assert rep.accepted == 1


def test_ingest_custom_schema(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(path, [[T0, "A", "BTC", "9.5"]], header=("ts", "venue", "coin", "px"))
    store = TickStore(tmp_path / "store")
    rep = store.ingest_csv(path, CsvSchema(time="ts", exchange="venue",
                                           symbol="coin", price="px"))
    assert rep.accepted == 1


def test_ingest_rejects_symbols_naming_other_directories(tmp_path):
    bad = ["../../escaped", ".", "..", "a/b", "a\\b"]
    path = tmp_path / "in.csv"
    write_csv(path, [[T0, "A", sym, "100.0"] for sym in bad] + [[T0, "A", "BTC", "100.0"]])
    store = TickStore(tmp_path / "work" / "store")
    rep = store.ingest_csv(path)
    assert (rep.accepted, rep.rejected) == (1, len(bad))
    assert rep.reject_log == [(line, "bad symbol") for line in range(2, 2 + len(bad))]
    assert store.symbols() == ["BTC"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "work"]
    assert [p.name for p in (tmp_path / "work").iterdir()] == ["store"]


def test_ingest_rejects_timestamps_beyond_int64_ns(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(path, [["2021-03-01T00:00:00Z", "A", "BTC", "100.0"],
                     ["2300-01-01T00:00:00Z", "A", "BTC", "100.0"]])
    store = TickStore(tmp_path / "store")
    rep = store.ingest_csv(path)
    assert (rep.accepted, rep.rejected) == (1, 1)
    assert rep.reject_log == [(3, "bad timestamp")]
    assert store.days("BTC") == [date(2021, 3, 1)]


def test_ingest_rejects_short_rows_missing_the_timestamp(tmp_path):
    # the timestamp is the last column, so a short row leaves it empty
    # (csv.DictReader fills it with None) before and after format detection
    path = tmp_path / "in.csv"
    write_csv(path, [["A", "BTC", "101"],
                     ["A", "BTC", "100.0", T0],
                     ["A", "BTC", "101"]],
              header=("exchange", "symbol", "price", "time"))
    store = TickStore(tmp_path / "store")
    rep = store.ingest_csv(path)
    assert (rep.accepted, rep.rejected) == (1, 2)
    assert rep.reject_log == [(2, "bad timestamp"), (4, "bad timestamp")]
    assert rep.timestamp_format == "epoch_ns"
    assert len(store.slice("BTC", date(2021, 3, 1))) == 1


def test_ingest_missing_column_fails_fast(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(path, [[T0, "A", "100.0"]], header=("time", "exchange", "price"))
    with pytest.raises(ValueError, match="symbol"):
        TickStore(tmp_path / "store").ingest_csv(path)


# ---------------------------------------------------------------------------
# slicing
# ---------------------------------------------------------------------------

def test_slice_two_exchanges_sorted(tmp_path):
    rows = []
    for i in range(5):
        rows.append([T0 + i * 10 ** 9, "B", "BTC", "100.0"])
        rows.append([T0 + i * 10 ** 9, "A", "BTC", "101.0"])
    path = tmp_path / "in.csv"
    write_csv(path, rows)
    store = TickStore(tmp_path / "store")
    store.ingest_csv(path)
    day = store.slice("BTC", date(2021, 3, 1))
    assert len(day) == 10
    assert list(np.diff(day.timestamps_ns) >= 0) == [True] * 9
    # stable (timestamp, exchange) order
    assert day.exchanges[:2] == ["A", "B"]


def test_slice_missing_day_is_empty_not_error(tmp_path):
    store = TickStore(tmp_path / "store")
    day = store.slice("BTC", date(2021, 3, 1))
    assert day.empty


def test_unreadable_store_raises_oserrors(tmp_path):
    store = TickStore(tmp_path / "store")
    part = tmp_path / "store" / "ticks" / "BTC" / "2021-03-01"
    part.mkdir(parents=True)
    (part / f"{'0' * 64}.npz").mkdir()       # a directory where a file belongs
    with pytest.raises(OSError):
        store.slice("BTC", date(2021, 3, 1))


def test_midnight_straddle_splits_by_day(tmp_path):
    rows = [[T0 + DAY_NS - 10 ** 9, "A", "BTC", "100.0"],   # 23:59:59 day 1
            [T0 + DAY_NS, "A", "BTC", "101.0"],             # 00:00:00 day 2
            [T0 + DAY_NS + 10 ** 9, "A", "BTC", "102.0"]]
    path = tmp_path / "in.csv"
    write_csv(path, rows)
    store = TickStore(tmp_path / "store")
    store.ingest_csv(path)
    d1 = store.slice("BTC", date(2021, 3, 1))
    d2 = store.slice("BTC", date(2021, 3, 2))
    assert len(d1) == 1 and len(d2) == 2
    assert d1.timestamps_ns[0] == T0 + DAY_NS - 10 ** 9


def test_interrupted_ingest_retry_stores_each_row_once(tmp_path, monkeypatch):
    rows = [[T0 + i * 10 ** 9, "A", "BTC", "100.0"] for i in range(3)]
    rows += [[T0 + DAY_NS + i * 10 ** 9, "A", "BTC", "101.0"] for i in range(5)]
    path = tmp_path / "in.csv"
    write_csv(path, rows)
    store = TickStore(tmp_path / "store")
    write = tickstore._write_replacing
    calls = []

    def second_write_fails(target, fill):
        calls.append(target)
        if len(calls) == 2:                  # dies with its temporary file half written
            target.with_name(target.name + ".tmp").write_bytes(b"PK\x03\x04")
            raise OSError("disk full")
        write(target, fill)

    monkeypatch.setattr(tickstore, "_write_replacing", second_write_fails)
    with pytest.raises(OSError):
        store.ingest_csv(path)
    monkeypatch.setattr(tickstore, "_write_replacing", write)
    assert store.days("BTC") == [date(2021, 3, 1)]       # the first day landed
    rep = store.ingest_csv(path)
    assert (rep.accepted, rep.already_ingested) == (8, False)
    d1 = store.slice("BTC", date(2021, 3, 1))
    d2 = store.slice("BTC", date(2021, 3, 2))
    assert list(d1.timestamps_ns) == [T0 + i * 10 ** 9 for i in range(3)]
    assert list(d2.timestamps_ns) == [T0 + DAY_NS + i * 10 ** 9 for i in range(5)]
    assert store.ingest_csv(path).already_ingested


def test_two_sources_one_day_hold_their_union(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, [[T0 + 2 * 10 ** 9, "B", "BTC", "100.0"], [T0, "A", "BTC", "101.0"]])
    write_csv(b, [[T0 + 10 ** 9, "A", "BTC", "102.0"], [T0, "B", "BTC", "103.0"]])
    store = TickStore(tmp_path / "store")
    assert store.ingest_csv(a).accepted == 2 and store.ingest_csv(b).accepted == 2
    day = store.slice("BTC", date(2021, 3, 1))
    assert list(day.timestamps_ns) == [T0, T0, T0 + 10 ** 9, T0 + 2 * 10 ** 9]
    assert day.exchanges == ["A", "B", "A", "B"]
    assert list(day.prices) == [101.0, 103.0, 102.0, 100.0]
    assert store.ingest_csv(a).already_ingested and store.ingest_csv(b).already_ingested
    assert len(store.slice("BTC", date(2021, 3, 1))) == 4


def test_duplicate_rows_are_kept(tmp_path):
    rows = [[T0, "A", "BTC", "100.0"]] * 3
    path = tmp_path / "in.csv"
    write_csv(path, rows)
    store = TickStore(tmp_path / "store")
    store.ingest_csv(path)
    assert len(store.slice("BTC", date(2021, 3, 1))) == 3


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3 * 86_400 - 1),
                          st.sampled_from(["A", "B", "C"]),
                          st.floats(0.5, 1e5)),
                min_size=1, max_size=60))
def test_roundtrip_multiset(tmp_path_factory, ticks):
    tmp = tmp_path_factory.mktemp("rt")
    rows = [[T0 + s * 10 ** 9, e, "ETH", repr(p)] for s, e, p in ticks]
    path = tmp / "in.csv"
    write_csv(path, rows)
    store = TickStore(tmp / "store")
    rep = store.ingest_csv(path)
    assert rep.accepted == len(rows)
    got = []
    for d in (date(2021, 3, 1), date(2021, 3, 2), date(2021, 3, 3)):
        sl = store.slice("ETH", d)
        got += [(int(t), e, float(p)) for t, e, p in
                zip(sl.timestamps_ns, sl.exchanges, sl.prices)]
        # partitioning is a pure function of the UTC date of the timestamp
        day_start = T0 + (d.toordinal() - date(2021, 3, 1).toordinal()) * DAY_NS
        assert all(day_start <= t < day_start + DAY_NS for t in sl.timestamps_ns)
    want = [(T0 + s * 10 ** 9, e, float(repr(p))) for s, e, p in ticks]
    assert sorted(got) == sorted(want)
