"""Tick ingestion, partitioning, and slicing."""
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfjumps import tickstore
from hfjumps.catalog import day_start_ns, parse_epoch_ns, parse_iso_ns, utc_date
from hfjumps.simulate import SimConfig, make_corpus
from hfjumps.tickstore import CsvSchema, TickStore

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


@settings(max_examples=200, deadline=None)
@given(st.dates(date(1970, 1, 1), date(2200, 12, 31)))
def test_day_start_ns_is_the_inverse_of_utc_date(day):
    start = day_start_ns(day)
    assert start == parse_iso_ns(f"{day.isoformat()}T00:00:00Z")
    assert utc_date(start) == day
    assert utc_date(start - 1) == day - timedelta(days=1)


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


def test_ingest_rejects_a_nul_in_the_exchange(tmp_path):
    # a numpy str array drops trailing NULs: "\0" would store as "" and "A\0" as "A"
    path = tmp_path / "in.csv"
    path.write_text("time,exchange,symbol,price\n"
                    f"{T0},\0,BTC,100.0\n{T0 + 1},A\0,BTC,101.0\n{T0 + 2},A,BTC,102.0\n")
    store = TickStore(tmp_path / "store")
    rep = store.ingest_csv(path)
    assert (rep.accepted, rep.rejected) == (1, 2)
    assert rep.reject_log == [(2, "bad exchange"), (3, "bad exchange")]
    assert store.slice("BTC", date(2021, 3, 1)).exchanges.tolist() == ["A"]


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
    assert day.exchanges[:2].tolist() == ["A", "B"]


def test_slice_missing_day_is_empty_not_error(tmp_path):
    store = TickStore(tmp_path / "store")
    day = store.slice("BTC", date(2021, 3, 1))
    assert day.empty


def test_only_an_ingest_creates_the_store(tmp_path):
    store = TickStore(tmp_path / "store")
    assert store.symbols() == [] and store.days("BTC") == []
    assert not (tmp_path / "store").exists()
    path = tmp_path / "in.csv"
    write_csv(path, [[T0, "A", "BTC", "0"]])          # every row rejected
    assert store.ingest_csv(path).accepted == 0
    assert [p.name for p in (tmp_path / "store").iterdir()] == ["sources"]
    assert store.symbols() == [] and store.days("BTC") == []


def test_unreadable_store_raises_oserrors(tmp_path):
    store = TickStore(tmp_path / "store")
    part = tmp_path / "store" / "ticks" / "BTC" / "2021-03-01"
    part.mkdir(parents=True)
    (part / f"{'0' * 64}.npz").mkdir()       # a directory where a file belongs
    (tmp_path / "store" / "sources").mkdir()
    (tmp_path / "store" / "sources" / f"{'0' * 64}.json").write_text("{}")
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
    # the first day's file landed, but the source has no record: nothing is visible
    assert len(list((tmp_path / "store" / "ticks").rglob("*.npz"))) == 1
    assert store.symbols() == [] and store.days("BTC") == []
    assert store.slice("BTC", date(2021, 3, 1)).empty
    assert store.slice("BTC", date(2021, 3, 2)).empty
    rep = store.ingest_csv(path)
    assert (rep.accepted, rep.already_ingested) == (8, False)
    assert store.symbols() == ["BTC"]
    assert store.days("BTC") == [date(2021, 3, 1), date(2021, 3, 2)]
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
    assert day.exchanges.tolist() == ["A", "B", "A", "B"]
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


# ---------------------------------------------------------------------------
# reject log, record and memory
# ---------------------------------------------------------------------------

ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def test_timestamps_take_ascii_digits_only(tmp_path):
    # int() reads other scripts' digits; a timestamp may not be written in them
    epoch = str(T0).translate(ARABIC_INDIC)
    iso = "2021-03-01T00:00:00Z".translate(ARABIC_INDIC)
    for text in (epoch, iso):
        for parse in (parse_epoch_ns, parse_iso_ns):
            with pytest.raises(ValueError):
                parse(text)
    path = tmp_path / "in.csv"
    write_csv(path, [[epoch, "A", "BTC", "100.0"], [T0, "A", "BTC", "100.0"],
                     [epoch, "A", "BTC", "100.0"]])
    rep = TickStore(tmp_path / "store").ingest_csv(path)
    assert (rep.accepted, rep.rejected, rep.timestamp_format) == (1, 2, "epoch_ns")
    assert rep.reject_log == [(2, "bad timestamp"), (4, "bad timestamp")]


def test_reject_log_numbers_file_lines_past_blank_lines(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(f"time,exchange,symbol,price\n{T0},A,BTC,100.0\n\n{T0},A,BTC,abc\n")
    rep = TickStore(tmp_path / "store").ingest_csv(path)
    assert (rep.accepted, rep.rejected) == (1, 1)
    assert rep.reject_log == [(4, "bad price")]


def test_source_record_counts_rejects_by_reason(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(path, [[T0, "A", "BTC", "100.0"], ["x", "A", "BTC", "100.0"],
                     [T0, "A", "BTC", "-1"], [T0, "A", "BTC", "nan"], [T0, "", "BTC", "1"]])
    store = TickStore(tmp_path / "store")
    rep = store.ingest_csv(path)
    want = {"bad timestamp": 1, "non-positive price": 2, "missing field": 1}
    assert (rep.accepted, rep.rejected, rep.rejected_by_reason) == (1, 4, want)
    [record] = (tmp_path / "store" / "sources").glob("*.json")
    assert json.loads(record.read_text())["rejected_by_reason"] == want
    again = store.ingest_csv(path)
    assert again.already_ingested and again.rejected_by_reason == want


def test_reingest_over_a_record_without_reject_counts_is_a_no_op(tmp_path):
    # a record written before the per-reason counts existed
    path = tmp_path / "in.csv"
    write_csv(path, [[T0, "A", "BTC", "100.0"], [T0, "A", "BTC", "abc"]])
    store = TickStore(tmp_path / "store")
    store.ingest_csv(path)
    [record] = (tmp_path / "store" / "sources").glob("*.json")
    old = {"accepted": 1, "rejected": 1, "timestamp_format": "epoch_ns"}
    record.write_text(json.dumps(old, indent=1, sort_keys=True))
    [part] = (tmp_path / "store" / "ticks").rglob("*.npz")
    stored = part.read_bytes()
    rep = store.ingest_csv(path)
    assert rep.already_ingested
    assert (rep.accepted, rep.rejected, rep.rejected_by_reason) == (1, 1, {})
    assert json.loads(record.read_text()) == old and part.read_bytes() == stored


@pytest.mark.parametrize("kind", ["epoch_1s", "iso_dirty"])
def test_ingest_memory_stays_chunked(tmp_path, kind):
    # a whole-file column parse of a 1-s day peaks at about 2x this bound,
    # the row-by-row parse at 22.5 MiB; the chunked parse peaks at about 9.6
    # MiB on the 1-s day and 5 MiB on the ISO file
    if kind == "epoch_1s":
        [rec] = make_corpus(tmp_path, "BTC", date(2021, 1, 4), 1, SimConfig(seed=1))
        path, rows = tmp_path / rec["csv"], 86_400
    else:
        path, rows = tmp_path / "dirty.csv", 3 * 17_280
        dirty_file(path, n_ticks=17_280)
    store = TickStore(tmp_path / "store")
    tracemalloc.start()
    try:
        rep = store.ingest_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.accepted == rows
    assert peak < 12 * 2 ** 20


# ---------------------------------------------------------------------------
# the bulk parse against the row path
# ---------------------------------------------------------------------------

def row_ts(parse, text):
    """A cell as the row path reads it: epoch ns within int64, or None."""
    try:
        value = parse(text)
    except ValueError:
        return None
    return value if -2 ** 63 <= value < 2 ** 63 else None


def two(lo, hi):
    return st.integers(lo, hi).map("{:02d}".format)


ISO_CELLS = st.builds(
    "{}-{}-{}{}{}:{}:{}{}{}".format,
    st.sampled_from(["1677", "1678", "2021", "2262", "2300", "0000"])
    | st.integers(0, 9999).map("{:04d}".format),
    two(0, 13), two(0, 31), st.sampled_from(["T", " ", "t", "_"]),
    two(0, 25), two(0, 61), two(0, 61),
    st.just("") | st.text("0123456789", max_size=12).map(".{}".format),
    st.sampled_from(["", "Z", "z", "+00:00", "-05:30", "+0130", "-0000", "+05", "Z ",
                     " ", "ZZ", "\n"]))
EPOCH_CELLS = (st.integers(0, 10 ** 20).map(str)
               | st.sampled_from([str(2 ** 63 - 1), str(2 ** 63), "9" * 19, "1" * 9,
                                  "1" * 20, "0" * 10, f" {T0}", f"{T0}\n",
                                  str(T0).translate(ARABIC_INDIC), "1²" + "0" * 10]))
GARBAGE = st.text(st.sampled_from("0123456789-:.TZz +\t\x00²٣"), max_size=34) | st.text(max_size=8)
# dates and times numpy accepts, so that a group of them takes the bulk path
VALID_ISO_CELLS = st.builds(
    "{}-{}-{}{}{}:{}:{}{}{}".format,
    st.sampled_from(["1677", "2262"]) | st.integers(1678, 2261).map(str),
    two(1, 12), two(1, 28), st.sampled_from(["T", " "]), two(0, 23), two(0, 59), two(0, 59),
    st.just("") | st.text("0123456789", min_size=1, max_size=12).map(".{}".format),
    st.sampled_from(["", "Z", "z"]))
CELLS = (st.lists(ISO_CELLS | EPOCH_CELLS | GARBAGE, min_size=1, max_size=12)
         | st.lists(VALID_ISO_CELLS | EPOCH_CELLS, min_size=1, max_size=12)).map(tuple)


@settings(max_examples=300, deadline=None)
@given(CELLS)
def test_bulk_timestamps_match_the_row_path(cells):
    column = tickstore._Cells.of(cells)
    for fmt, (parse, bulk) in tickstore._FORMATS.items():
        want = [row_ts(parse, cell) for cell in cells]
        ts, ok = bulk(column)
        assert all(ts[i] == want[i] for i in np.flatnonzero(ok)), fmt
        ts, bad = tickstore._parse_times(column, fmt)
        assert list(bad) == [w is None for w in want], fmt
        assert [int(t) for t, b in zip(ts, bad) if not b] == [w for w in want if w is not None]


def test_bulk_parse_takes_the_canonical_shapes():
    iso = ("2021-03-01T00:00:00Z", "2021-03-01 00:00:00.5", "2021-03-01T00:00:00.1234567899z",
           "2021-03-01T01:00:00+01:00")
    ts, ok = tickstore._iso_bulk(tickstore._Cells.of(iso))
    assert list(ok) == [True, True, True, False]          # an offset takes the row path
    assert list(ts[:3]) == [T0, T0 + 500_000_000, T0 + 123_456_789]
    ts, ok = tickstore._epoch_bulk(tickstore._Cells.of(
        (str(T0), str(2 ** 63 - 1), str(2 ** 63), f" {T0}")))
    assert list(ok) == [True, True, False, False]
    assert list(ts[:2]) == [T0, 2 ** 63 - 1]


def test_bulk_iso_takes_the_cells_around_a_refused_date():
    cells = [f"2021-03-01T{i // 3600:02d}:{i // 60 % 60:02d}:{i % 60:02d}.25Z"
             for i in range(0, 5 * 2048, 5)]
    for refused in ("2021-02-30T00:00:00Z", "2021-03-01T24:00:00Z", "2021-03-01T00:00:60Z"):
        chunk = cells[:1000] + [refused] + cells[1001:]
        ts, ok = tickstore._iso_bulk(tickstore._Cells.of(chunk))
        assert ok.sum() == 2047 and not ok[1000]
        assert [int(t) for t in ts[ok]] == [parse_iso_ns(c) for c in chunk if c != refused]


@pytest.mark.parametrize("text", [
    "1677-09-21T00:12:43.145224192Z", "1677-09-21T00:12:43.145224191Z",
    "2262-04-11T23:47:16.854775807Z", "2262-04-11T23:47:16.854775808Z",
    "2021-03-01T00:00:00.1234567899z", "2021-03-01 00:00:00", "2021-02-30T00:00:00Z",
    "2021-03-01T24:00:00Z", "2021-03-01T00:00:60Z", "2021-03-01T00:00", "+2021-03-01T00:00:00",
    "2021-03-01T00:60:00Z", "2021-03-01T00:00:00.Z", "2021-03-01T00:00:00.", "2021-03-01T00:00:00Zz",
    "2021-13-01T00:00:00", "2021-00-01T00:00:00", "2021-04-31T00:00:00", "2024-02-29T00:00:00Z",
    "2100-02-29T00:00:00Z", "0000-01-01T00:00:00Z"])
def test_bulk_iso_edges_match_the_row_path(text):
    cells = (text, "2021-03-01T00:00:00Z")       # one group, as in a chunk
    ts, bad = tickstore._parse_times(tickstore._Cells.of(cells), "iso8601")
    assert [None if b else int(t) for t, b in zip(ts, bad)] == \
        [row_ts(parse_iso_ns, cell) for cell in cells]


def oracle_ingest(path, schema=CsvSchema()):
    """Row-by-row reference: csv.DictReader and the reject rules in order."""
    parsers = {"epoch_ns": parse_epoch_ns, "iso8601": parse_iso_ns}
    fmt, log, buckets = "", [], {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        for col in (schema.time, schema.exchange, schema.symbol, schema.price):
            if col not in (reader.fieldnames or []):
                raise ValueError(f"column {col!r} not found in {path}")
        for row in reader:
            raw = row[schema.time] or ""
            if not fmt:      # the first row either parser reads sets the format
                for f, parse in parsers.items():
                    try:
                        parse(raw)
                    except ValueError:
                        continue
                    fmt = f
                    break
            ts = row_ts(parsers[fmt], raw) if fmt else None
            sym = (row[schema.symbol] or "").strip()
            exch = (row[schema.exchange] or "").strip()
            try:
                price = float(row[schema.price])
            except (TypeError, ValueError):
                price = None
            if ts is None:
                reason = "bad timestamp"
            elif price is None:
                reason = "bad price"
            elif not np.isfinite(price) or price <= 0:
                reason = "non-positive price"
            elif not sym or not exch:
                reason = "missing field"
            elif sym in (".", "..") or "/" in sym or "\\" in sym or "\0" in sym:
                reason = "bad symbol"
            elif "\0" in exch:
                reason = "bad exchange"
            else:
                buckets.setdefault((sym, utc_date(ts)), []).append((ts, exch, price))
                continue
            log.append((reader.reader.line_num, reason))
    by_reason = {}
    for _, reason in log:
        by_reason[reason] = by_reason.get(reason, 0) + 1
    arrays = {key: (np.array([r[0] for r in rows], dtype=np.int64),
                    np.array([r[1] for r in rows]), np.array([r[2] for r in rows]))
              for key, rows in buckets.items()}
    for key, rows in buckets.items():        # the str arrays hold each exchange as read
        assert arrays[key][1].tolist() == [r[1] for r in rows]
    return fmt, log, by_reason, arrays


def assert_ingest_matches_oracle(path, store_dir, schema=CsvSchema()):
    try:
        want = oracle_ingest(path, schema)
    except (ValueError, csv.Error) as exc:       # the ingest fails as the oracle does
        # a decoding error's position counts from where the decoder began
        match = None if isinstance(exc, UnicodeDecodeError) else re.escape(str(exc))
        with pytest.raises(type(exc), match=match):
            TickStore(store_dir).ingest_csv(path, schema)
        return
    assert_ingest_matches(path, store_dir, want, schema)


def assert_ingest_matches(path, store_dir, want, schema=CsvSchema()):
    """Ingest ``path`` and compare the report and the stored days with ``oracle_ingest``'s."""
    fmt, log, by_reason, want = want
    rep = TickStore(store_dir).ingest_csv(path, schema)
    assert rep.timestamp_format == fmt
    assert rep.reject_log == log
    assert rep.rejected_by_reason == by_reason
    assert (rep.accepted, rep.rejected) == (sum(len(a[0]) for a in want.values()), len(log))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    got = {}
    for part in (store_dir / "ticks").glob(f"*/*/{digest}.npz"):
        with np.load(part) as z:
            got[(part.parent.parent.name, date.fromisoformat(part.parent.name))] = \
                (z["ts"], z["exchange"], z["price"])
    assert got.keys() == want.keys()
    for key, arrays in want.items():
        for g, w in zip(got[key], arrays):
            assert g.dtype == w.dtype and np.array_equal(g, w), key


ISO0 = "2021-03-01T00:00:00Z"


def test_ragged_rows_match_the_oracle(tmp_path, monkeypatch):
    monkeypatch.setattr(tickstore, "CHUNK_ROWS", 3)
    path = tmp_path / "in.csv"
    path.write_text("\n".join([
        "time,exchange,symbol,price",
        f"{T0},A,BTC,100.0",
        f"{T0 + 1},A,BTC",                   # short: no price
        f"{T0 + 2},A",                       # short: no symbol either
        "",
        f"{T0 + 3},B,BTC,101.0,extra,fields",
        f"{T0 + 4}",
        "",
        "",
        f"{T0 + 5}, B , ETH ,102.5",
        f"{T0 + 6},A,BTC,103.0",
    ]) + "\n")
    assert_ingest_matches_oracle(path, tmp_path / "store")


def test_repeated_header_names_take_the_last_column(tmp_path, monkeypatch):
    monkeypatch.setattr(tickstore, "CHUNK_ROWS", 2)
    path = tmp_path / "in.csv"
    write_csv(path, [[T0, "A", "BTC", "abc", "100.0"], [T0 + 1, "A", "BTC", "101.0", "-1"],
                     [T0 + 2, "A", "BTC", "102.0"], [T0 + 3, "A", "BTC", "1", "2", "3"]],
              header=("time", "exchange", "symbol", "price", "price"))
    assert_ingest_matches_oracle(path, tmp_path / "store")
    rep = TickStore(tmp_path / "again").ingest_csv(path)
    assert rep.reject_log == [(3, "non-positive price"), (4, "bad price")]
    assert list(TickStore(tmp_path / "again").slice("BTC", date(2021, 3, 1)).prices) == [100.0, 2.0]


def test_first_parseable_timestamp_past_the_first_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(tickstore, "CHUNK_ROWS", 3)
    rows = [[bad, "A", "BTC", "100.0"] for bad in ("x", "", str(T0)[:9], "2021-03-01",
                                                    "2021-13-01T00:00:00Z", "-1", "1e18")]
    rows += [["2021-03-01T00:00:01.5+01:00", "A", "BTC", "101.0"], [ISO0, "A", "BTC", "1"],
             [str(T0), "A", "BTC", "1"]]
    path = tmp_path / "in.csv"
    write_csv(path, rows)
    assert_ingest_matches_oracle(path, tmp_path / "store")
    rep = TickStore(tmp_path / "again").ingest_csv(path)
    assert (rep.timestamp_format, rep.accepted, rep.rejected) == ("iso8601", 2, 8)


def test_symbol_days_split_across_chunks_keep_file_order(tmp_path, monkeypatch):
    monkeypatch.setattr(tickstore, "CHUNK_ROWS", 4)
    rows = []
    for i in range(30):
        t = T0 + (DAY_NS if i % 3 == 0 else 0) + (37 * i % 11) * 10 ** 9    # not sorted
        rows.append([t, "AB"[i % 2] * (1 + i % 3), ("BTC", "ETH")[i % 5 == 0], f"{100 + i}.5"])
    path = tmp_path / "in.csv"
    write_csv(path, rows)
    assert_ingest_matches_oracle(path, tmp_path / "store")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    with np.load(tmp_path / "store" / "ticks" / "BTC" / "2021-03-01" / f"{digest}.npz") as z:
        want = [float(r[3]) for r in rows if r[2] == "BTC" and r[0] < T0 + DAY_NS]
        assert list(z["price"]) == want


def test_default_chunks_match_the_oracle(tmp_path):
    # several full chunks plus a partial one, rejects spread over them
    n = 2 * tickstore.CHUNK_ROWS + 123
    rows = [[f"2021-03-0{1 + i % 2}T00:00:{i % 60:02d}.{i:06d}Z", "AB"[i % 2], "BTC",
             "abc" if i % 997 == 0 else f"{100 + i % 7}.25"] for i in range(n)]
    rows[-5][0] = "2021-02-30T00:00:00Z"
    path = tmp_path / "in.csv"
    write_csv(path, rows)
    assert_ingest_matches_oracle(path, tmp_path / "store")


CSV_CELLS = {
    "time": st.sampled_from([str(T0), str(T0 + DAY_NS + 7), ISO0, "2021-03-02 23:59:59.999999999z",
                             "2021-03-01T01:00:00+01:00", "2300-01-01T00:00:00Z", str(2 ** 63),
                             "x", "", " " + str(T0)]),
    "exchange": st.sampled_from(["A", "BB", " A ", "", "CCC"]),
    "symbol": st.sampled_from(["BTC", "ETH", " BTC", "", "..", "a/b"]),
    "price": st.sampled_from(["100.0", "1e-3", " 7 ", "0", "-1", "nan", "inf", "abc", ""]),
}


# what takes a line off the byte path, by kind: cells as written.  Quoted
# cells hold commas, newlines and quotes; UTF-8 beyond ASCII holds digits
# ``float`` reads and blanks str.strip takes; "\udcff" is written as the
# byte 0xff, which is no UTF-8; a lone CR ends a record inside a line.
# ``nul_exchange`` puts a NUL in the exchange and adds valid cells to the
# other columns, so that often only the NUL is wrong with the row
ODD_CELLS = {
    "quoted": {"time": [f'"{T0}"', f'"{ISO0}\n"'], "exchange": ['"A,B"', '"A\nB"', '"A""B"'],
               "symbol": ['"BTC"', '"B,TC"', '"BTC\r\n"'], "price": ['"7"', '"1,5"', '"100\n.5"']},
    "nul": {"time": [f"{T0}\x00"], "exchange": ["A\x00", "\x00"], "symbol": ["BT\x00C"],
            "price": ["1\x00", "7\x00"]},
    "nul_exchange": {"time": [str(T0), ISO0], "exchange": ["A\x00", "\x00", "\x00A", "A\x00B"],
                     "symbol": ["BTC"], "price": ["100.0"]},
    "utf8": {"time": [str(T0).translate(ARABIC_INDIC), ISO0 + "\u00a0"],
             "exchange": ["Börse", "\u3000A"], "symbol": ["ÉTH", " BTC\u3000"],
             "price": ["١٠٠", "\u00a07", "7".translate(ARABIC_INDIC) + ".5"]},
    "bad_utf8": {"exchange": ["A\udcff"], "price": ["1\udcff"]},
    "cr": {"exchange": ["A\rB"], "price": ["7\r"]},
    "ragged": {},
}
PLAIN_ENDS = ["\n", "\r\n"]


@st.composite
def csv_files(draw):
    """A tick file's bytes: plain rows, then from a drawn row on rows that
    may also be of one ``ODD_CELLS`` kind.

    Any row may be blank.  A BOM may lead the header, and the last newline
    may be missing."""
    header = draw(st.permutations(list(CSV_CELLS)))
    kind = draw(st.sampled_from(list(ODD_CELLS)))
    bom = draw(st.sampled_from([""] * 9 + ["\ufeff"]))
    lines = [bom + ",".join(header) + draw(st.sampled_from(PLAIN_ENDS))]
    n = draw(st.integers(0, 25))
    odd_from = draw(st.integers(0, n + 1))
    for i in range(n):
        odd = i >= odd_from
        end = draw(st.sampled_from(PLAIN_ENDS + ["\r"] * (odd and kind == "cr")))
        if draw(st.integers(0, 9)) == 0:
            lines.append(end)                                  # a blank line
            continue
        cells = {col: CSV_CELLS[col] | st.sampled_from(ODD_CELLS[kind][col])
                 if odd and col in ODD_CELLS[kind] else CSV_CELLS[col] for col in header}
        row = [draw(cells[col]) for col in header]
        cut = draw(st.sampled_from([len(row)] * 6 + [0, 1, 2, 3, 5] * (odd and kind == "ragged")))
        lines.append(",".join((row + ["extra"])[:cut]) + end)
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")                           # no final newline
    return text.encode("utf-8", "surrogateescape")


@settings(max_examples=150, deadline=None)
@given(csv_files(), st.integers(1, 6))
@example(f"time,exchange,symbol,price\n{T0},A,BTC,1\n{T0},\0,BTC,2\n{T0},A\0,BTC,3\n"
         f"{T0},\0A,BTC,4\n".encode(), 2)
# an exchange "A\0" reads as "A" once its NUL is dropped: the next chunk's "A" is not its pair
@example(f"time,exchange,symbol,price\n{T0},A\0,BTC,1\n{T0},A,BTC,2\n{T0},A\0,BTC,3\n".encode(), 1)
def test_any_file_matches_the_oracle(tmp_path_factory, data, chunk_rows):
    tmp = tmp_path_factory.mktemp("csv")
    path = tmp / "in.csv"
    path.write_bytes(data)
    old = tickstore.CHUNK_ROWS
    tickstore.CHUNK_ROWS = chunk_rows
    try:
        assert_ingest_matches_oracle(path, tmp / "store")
    finally:
        tickstore.CHUNK_ROWS = old


def plain(cell):
    """Whether a cell keeps its line on the byte path."""
    return cell.isascii() and not set(cell) & set(',"\r\n\0')


# the stamp shapes of the bulk parse's tests, one format per file, and prices
# float reads as no other parser does, among them cells longer than the bulk
# parse reads
PLAIN_TIMES = [(ISO_CELLS | VALID_ISO_CELLS).filter(plain), EPOCH_CELLS.filter(plain)]
PLAIN_CELLS = {
    "exchange": CSV_CELLS["exchange"],
    "symbol": CSV_CELLS["symbol"],
    "price": CSV_CELLS["price"] | st.sampled_from([
        "1_000.5", "-0.0", "1e400", "Infinity", "-Infinity", "1e-400", "0" * 31 + "7.5",
        " " * 32 + "7", "1." + "0" * 40, "7" * 40, "x" * 33]),
}


@st.composite
def plain_files(draw):
    """A tick file's bytes whose every line is plain: ASCII, no quote, NUL or
    lone CR, one comma fewer than the header has names."""
    header = draw(st.permutations(["time", *PLAIN_CELLS]))
    cells = {**PLAIN_CELLS, "time": draw(st.sampled_from(PLAIN_TIMES))}
    lines = [",".join(header) + draw(st.sampled_from(PLAIN_ENDS))]
    for _ in range(draw(st.integers(0, 25))):
        end = draw(st.sampled_from(PLAIN_ENDS))
        blank = draw(st.integers(0, 9)) == 0
        lines.append(end if blank else ",".join(draw(cells[col]) for col in header) + end)
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")                           # no final newline
    return text.encode()


@settings(max_examples=200, deadline=None)
@given(plain_files(), st.sampled_from([1, 2, 3, 4, 5, 6, tickstore.CHUNK_ROWS]))
def test_plain_files_of_any_stamp_shape_match_the_oracle(tmp_path_factory, data, chunk_rows):
    tmp = tmp_path_factory.mktemp("csv")
    path = tmp / "in.csv"
    path.write_bytes(data)
    want = oracle_ingest(path)                  # DictReader reads through csv.reader
    old = tickstore.CHUNK_ROWS, csv.reader
    tickstore.CHUNK_ROWS, csv.reader = chunk_rows, refuse_csv_reader
    try:
        assert_ingest_matches(path, tmp / "store", want)
    finally:
        tickstore.CHUNK_ROWS, csv.reader = old


def test_an_irregular_line_after_plain_chunks_matches_the_oracle(tmp_path, monkeypatch):
    # the byte path takes the first chunks; csv.reader reads on from the
    # chunk holding the quoted cell, whose newline does not end the record
    monkeypatch.setattr(tickstore, "CHUNK_ROWS", 4)
    lines = [f"{T0 + i},A,BTC,{100 + i}.5" for i in range(13)]
    lines[10] = f'{T0 + 10},"A\nB",BTC,"1.5"'
    lines[11] = f"{T0 + 11},A,BTC,abc"
    lines[12] = f"{T0 + 12},A,BTC,7\x00"            # the S dtype would drop the NUL
    path = tmp_path / "in.csv"
    path.write_text("time,exchange,symbol,price\n" + "\n".join(lines) + "\n")
    assert_ingest_matches_oracle(path, tmp_path / "store")
    rep = TickStore(tmp_path / "again").ingest_csv(path)
    assert rep.reject_log == [(14, "bad price"), (15, "bad price")]
    assert TickStore(tmp_path / "again").slice("BTC", date(2021, 3, 1)).exchanges[10] == "A\nB"


def dirty_file(path, n_ticks=2000, seed=5):
    """A dirty-style file: LF, ISO stamps, three exchanges, a malformed row of each kind."""
    [rec] = make_corpus(path.parent, "BTC", date(2021, 1, 4), 1, SimConfig(n=n_ticks, seed=seed),
                        exchanges=("A", "B", "C"), exchange_noise_q=0.0005)
    rows = [line.split(",") for line in (path.parent / rec["csv"]).read_text().splitlines()]
    for r in rows[1:]:
        r[0] = np.datetime_as_string(np.int64(r[0]).astype("datetime64[ns]"), unit="ms") + "Z"
    for i, change in zip(range(100, len(rows), 997), (
            {3: "nan"}, {3: "abc"}, {0: "not-a-time"}, {3: "-1.0"}, {1: ""})):
        bad = list(rows[i])
        for col, cell in change.items():
            bad[col] = cell
        rows.insert(i, bad)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def refuse_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader read a plain file")


def test_plain_files_never_reach_csv_reader(tmp_path, monkeypatch):
    # nor, past format detection and malformed stamps, the row parsers
    [rec] = make_corpus(tmp_path / "sim", "ETH", date(2021, 1, 4), 1, SimConfig(n=5000, seed=2))
    simulated = tmp_path / "sim" / rec["csv"]
    assert b"\r\n" in simulated.read_bytes()
    time_last = tmp_path / "sim" / "time_last.csv"       # each stamp ends at a CRLF
    time_last.write_bytes(b"".join(b",".join(cells[1:] + cells[:1]) + b"\r\n" for cells in (
        line.split(b",") for line in simulated.read_bytes().splitlines())))
    dirty = tmp_path / "dirty" / "dirty.csv"
    dirty.parent.mkdir()
    dirty_file(dirty)
    files = {simulated: 1, time_last: 1, dirty: 3}          # row-parsed stamps in each
    want = {path: oracle_ingest(path) for path in files}
    fmt, log, _, arrays = want[dirty]
    assert fmt == "iso8601" and len(log) == 5
    assert {e for _, exch, _ in arrays.values() for e in exch} == {"A", "B", "C"}

    calls = []

    def counted(parse):
        def row_parse(text):
            calls.append(text)
            return parse(text)
        return row_parse

    monkeypatch.setattr(csv, "reader", refuse_csv_reader)
    monkeypatch.setattr(tickstore, "_FORMATS", {
        fmt: (counted(parse), bulk) for fmt, (parse, bulk) in tickstore._FORMATS.items()})
    for path, row_parsed in files.items():
        calls.clear()
        assert_ingest_matches(path, tmp_path / "store", want[path])
        assert len(calls) == row_parsed, calls


BOM = "\ufeff"


@pytest.mark.parametrize("text, reader_encoding, log", [
    # plain lines after the BOM: the byte path reads the whole file
    (f"{BOM}time,exchange,symbol,price\n{T0},A,BTC,100.0\n{T0 + 1},B,BTC,101.0\n", None, []),
    # a quoted header name: csv.reader reads from the start and drops the BOM
    (f'{BOM}"time",exchange,symbol,price\n{T0},A,BTC,100.0\n', "utf-8-sig", []),
    # csv.reader reads on from line 2, where a BOM is part of a cell
    (f"{BOM}time,exchange,symbol,price\n{T0},A,BTC,100.0\n{BOM}{T0 + 1},B,BTC,101.0\n",
     "utf-8", [(3, "bad timestamp")])], ids=["plain", "quoted_header", "odd_line"])
def test_a_leading_bom_is_dropped_on_either_path(tmp_path, monkeypatch, text, reader_encoding,
                                                 log):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    want = oracle_ingest(path)
    assert want[1] == log
    opened, reader = [], csv.reader

    def recorded(stream, *args, **kwargs):
        opened.append(stream.encoding)
        return reader(stream, *args, **kwargs)

    monkeypatch.setattr(csv, "reader", recorded if reader_encoding else refuse_csv_reader)
    assert_ingest_matches(path, tmp_path / "store", want)
    assert opened == ([reader_encoding] if reader_encoding else [])
    assert TickStore(tmp_path / "store").slice("BTC", date(2021, 3, 1)).prices[0] == 100.0


def test_ingest_decodes_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(f"time,exchange,symbol,price\n{T0},Börse,BTC,100.0\n"
                     f"{T0 + 1},A,BTC,١٠١\n".encode("utf-8"))
    code = ("import locale, sys\n"
            "from hfjumps.tickstore import TickStore\n"
            "TickStore(sys.argv[1]).ingest_csv(sys.argv[2])\n"
            "print(locale.getpreferredencoding(False))")
    src = str(Path(tickstore.__file__).parents[1])
    path_var = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    modes = {"utf8": {"PYTHONUTF8": "1"},
             "c": {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}}
    stores, encodings = [], []
    for name, env in modes.items():
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / name), str(path)],
                              env={**os.environ, "PYTHONPATH": path_var, **env},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        encodings.append(proc.stdout.split()[-1].lower().replace("-", ""))
        root = tmp_path / name
        stores.append({p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()})
    assert encodings[0] == "utf8" and encodings[1] != "utf8"    # the locale's own is ASCII
    assert stores[0] == stores[1] and len(stores[0]) == 2       # one day file, one record
    day = TickStore(tmp_path / "c").slice("BTC", date(2021, 3, 1))
    assert day.exchanges.tolist() == ["Börse", "A"] and list(day.prices) == [100.0, 101.0]
