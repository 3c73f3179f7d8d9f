"""Tick ingestion and partitioned storage.

Raw trades arrive as CSV (one row per tick: timestamp, exchange, symbol,
price) and are persisted per (symbol, UTC day), one immutable ``.npz``
file for each source file that touches the day, written under a
temporary name and renamed into place.  Timestamps are stored as integer
epoch nanoseconds; input may be ISO-8601 UTC or epoch nanoseconds
(auto-detected per file from its first parseable timestamp, the
detection is logged).

A file is read as UTF-8 whatever the locale, a leading byte order mark
dropped, ``CHUNK_ROWS`` lines at a time.  A chunk of plain lines is split
into cells by numpy on its bytes: plain means no quote, NUL, byte >= 0x80
or CR outside a CRLF, no line longer than ``csv.field_size_limit()``, and
on every non-blank line one comma fewer than the header has names.  From
the first chunk that is not plain (the header included) to the end of the
file, ``csv.reader`` reads the text, since a quoted cell can span lines;
line numbers carry on.  Blank lines are skipped either way.

Both front ends hand each chunk's columns to one parse as fixed-width
bytes plus cell lengths (``_Cells``).  Epoch stamps that are 10-19 ASCII
digits are converted through ``astype(int64)``, ISO stamps of the shape
``YYYY-MM-DD[T ]HH:MM:SS[.f...][Z|z]`` by integer arithmetic on their
digits, prices through ``float``, and (symbol, exchange)
pairs are coded with one ``np.unique`` per chunk.  Any other timestamp
(an offset, surrounding blanks, an impossible date, a value at the ends
of int64 nanoseconds) goes through the row-level parser,
``parse_iso_ns`` or ``parse_epoch_ns``, so bulk and row parse accept and
reject the same cells; a price ``float`` refuses as bytes is read again
as text.  The reject rules are masks, and only int64, float64 and code
arrays outlive a chunk.
"""
from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import logging
import os
from dataclasses import dataclass, field
from datetime import date
from itertools import islice
from pathlib import Path

import numpy as np

from .catalog import DAY_NS, EPOCH_ORDINAL, parse_epoch_ns, parse_iso_ns, utc_date

log = logging.getLogger(__name__)

CHUNK_ROWS = 2048         # records parsed per bulk step; bounds the parse's memory

# the bulk parse reads a chunk's cells as fixed-width bytes, as wide as the
# longest cell; a cell longer than this is cut, and read whole where it is used
_BULK_WIDTH = 32
_INT64_MAX = str(2 ** 63 - 1).encode()
# the non-digits of YYYY-MM-DD?HH:MM:SS by position; the ? is a T or a space
_ISO_SEPARATORS = {4: "-", 7: "-", 13: ":", 16: ":"}
# whole seconds strictly between these are in range as int64 ns
_S_MIN, _S_MAX = -2 ** 63 // 10 ** 9, (2 ** 63 - 1) // 10 ** 9


class _Cells:
    """One column of a chunk: each cell's UTF-8 bytes at a fixed width, and its length.

    ``data`` holds the cells at ``starts``.  ``points`` holds their bytes
    as (cells, width) uint8, 0 past a cell's end, and ``text`` the same
    as ``S{width}``.  ``exact`` marks the cells those bytes hold whole: not
    cut at the width and free of NUL, which ``S`` would drop at a cell's
    end.  ``raw(i)`` is any cell whole.
    """

    def __init__(self, data: bytes, starts: np.ndarray, lens: np.ndarray):
        self._data, self._starts, self.lens = data, starts, lens
        width = int(min(max(lens.max(initial=0), 1), _BULK_WIDTH))
        span = np.arange(width)
        self.points = np.frombuffer(data, np.uint8).take(starts[:, None] + span, mode="clip")
        self.points *= span < lens[:, None]
        self.text = self.points.view(f"S{width}")[:, 0]
        self.exact = (lens <= width if b"\0" not in data
                      else np.count_nonzero(self.points, axis=1) == lens)

    @classmethod
    def of(cls, cells) -> _Cells:
        """The form of text cells."""
        raw = [cell.encode() for cell in cells]
        lens = np.fromiter(map(len, raw), np.intp, len(raw))
        # one byte past the cells, so that even empty cells have data to take from
        return cls(b"".join(raw) + b" ", np.cumsum(lens) - lens, lens)

    def __len__(self) -> int:
        return len(self.lens)

    def raw(self, i: int) -> bytes:
        return self._data[self._starts[i]:self._starts[i] + self.lens[i]]

    def cell(self, i: int) -> str:
        return self.raw(i).decode()


def _digit_counts(points: np.ndarray) -> np.ndarray:
    """ASCII digits per row; with the row's length it says whether all of it is digits."""
    return (points - np.uint8(ord("0")) < 10).sum(1)    # uint8: below "0" wraps high


def _epoch_bulk(cells: _Cells) -> tuple[np.ndarray, np.ndarray]:
    """Epoch ns of the cells that are 10-19 ASCII digits within int64, and which those are."""
    lens = cells.lens
    ok = (lens >= 10) & (lens <= 19) & (_digit_counts(cells.points) == lens)
    ok &= ~((lens == 19) & (cells.text > _INT64_MAX))
    ts = np.zeros(len(cells), np.int64)
    ts[ok] = cells.text[ok].astype(np.int64)
    return ts, ok


def _iso_bulk(cells: _Cells) -> tuple[np.ndarray, np.ndarray]:
    """Epoch ns of the cells shaped ``YYYY-MM-DD[T ]HH:MM:SS[.f...][Z|z]``, and which those are.

    Fractional digits past the ninth truncate, as in ``parse_iso_ns``.
    A date or time ``datetime`` refuses (Feb 30, hour 24, second 60) is
    not taken; the rest of the group is.
    """
    lens, points = cells.lens, cells.points
    n, width = points.shape
    ts = np.zeros(n, np.int64)
    if width < 19:
        return ts, np.zeros(n, bool)
    last = points[np.arange(n), np.clip(lens, 1, width) - 1]
    z = (lens > 19) & ((last == ord("Z")) | (last == ord("z")))
    end = lens - z                                   # of the fraction
    dot = points[:, 19] == ord(".") if width > 19 else np.zeros(n, bool)
    ok = (lens >= 19) & (lens <= width) & ((end == 19) | (dot & (end > 20)))
    ok &= (points[:, 10] == ord("T")) | (points[:, 10] == ord(" "))
    for at, sep in _ISO_SEPARATORS.items():
        ok &= points[:, at] == ord(sep)
    # the non-digits checked above are the only ones: all other bytes are digits
    ok &= lens - _digit_counts(points) == 5 + (end > 19) + z
    if not ok.any():
        return ts, ok
    frac = points[:, 20:29].astype(np.int64) - ord("0")
    frac[np.arange(20, 20 + frac.shape[1]) >= end[:, None]] = 0
    frac_ns = frac @ 10 ** np.arange(8, 8 - frac.shape[1], -1)
    rows = np.flatnonzero(ok)
    secs, taken = _iso_seconds(points[rows])
    inside = taken & (secs > _S_MIN) & (secs < _S_MAX)
    ok[rows[~inside]] = False
    ts[rows[inside]] = secs[inside] * 10 ** 9 + frac_ns[rows[inside]]
    return ts, ok


_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE_MONTH = np.concatenate(([0], np.cumsum(_MONTH_DAYS[:-1])))


def _iso_seconds(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of ``YYYY-MM-DD?HH:MM:SS`` rows of digit bytes, and which ones
    ``datetime`` reads: years 1-9999, the days of each month, no hour 24 or second 60.

    Computed from the digits, as ``date.toordinal`` counts days.  numpy's
    cast of ``S`` cells to ``datetime64`` is no way round: in numpy 2.4 a
    refused date among a few hundred cells can crash the process.
    """
    d = points[:, :19].astype(np.int64) - ord("0")
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month, day, hh, mm, ss = (d[:, i] * 10 + d[:, i + 1] for i in (5, 8, 11, 14, 17))
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    m = np.clip(month, 1, 12)
    ok = ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
          & (day <= _MONTH_DAYS[m] + (leap & (m == 2))) & (hh < 24) & (mm < 60) & (ss < 60))
    y = year - 1
    days = (y * 365 + y // 4 - y // 100 + y // 400 + _DAYS_BEFORE_MONTH[m] + (leap & (m > 2))
            + day - EPOCH_ORDINAL)
    return days * 86_400 + hh * 3600 + mm * 60 + ss, ok


# timestamp format name -> (row parser, bulk parser)
_FORMATS = {"epoch_ns": (parse_epoch_ns, _epoch_bulk), "iso8601": (parse_iso_ns, _iso_bulk)}


def _detect_format(cells: _Cells) -> str | None:
    """The format of the first cell a row parser reads, epoch first; None if none."""
    for i in range(len(cells)):
        raw = cells.cell(i)
        for fmt, (parse, _) in _FORMATS.items():
            try:
                parse(raw)
            except ValueError:
                continue
            return fmt
    return None


def _parse_times(cells: _Cells, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Epoch ns of each cell in format ``fmt``, and a mask of the cells that are none.

    The bulk parser takes what it can; every other cell goes through the
    row parser and must land within int64 nanoseconds.
    """
    parse, bulk = _FORMATS[fmt]
    ts, ok = bulk(cells)
    bad = np.zeros(len(cells), bool)
    for i in np.flatnonzero(~ok):
        try:
            value = parse(cells.cell(i))
        except ValueError:
            value = None
        if value is not None and -2 ** 63 <= value < 2 ** 63:
            ts[i] = value
        else:
            bad[i] = True
    return ts, bad


def _parse_prices(cells: _Cells) -> tuple[np.ndarray, np.ndarray]:
    """Each cell as ``float`` reads its text, and a mask of the cells it cannot read (NaN).

    ``float`` reads the bytes, and reads a cell it refuses again as text:
    only text may hold other scripts' digits or blanks.
    """
    raw = cells.text.tolist()
    for i in np.flatnonzero(~cells.exact):
        raw[i] = cells.raw(i)
    prices, bad = [], np.zeros(len(raw), bool)
    rest = iter(raw)
    while True:
        try:
            prices.extend(map(float, rest))        # keeps the values read before a refusal
            return np.array(prices, np.float64), bad
        except ValueError:
            i = len(prices)
            try:
                prices.append(float(raw[i].decode()))
            except ValueError:
                prices.append(np.nan)
                bad[i] = True


@dataclass
class SymbolDaySlice:
    """All ticks of one symbol on one UTC day, time-sorted, all exchanges."""

    symbol: str
    utc_date: date
    timestamps_ns: np.ndarray
    exchanges: np.ndarray      # str
    prices: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps_ns)

    @property
    def empty(self) -> bool:
        return len(self) == 0


@dataclass(frozen=True)
class CsvSchema:
    """Maps the four tick fields to CSV column names."""

    time: str = "time"
    exchange: str = "exchange"
    symbol: str = "symbol"
    price: str = "price"


@dataclass
class IngestReport:
    accepted: int = 0
    rejected: int = 0
    timestamp_format: str = ""
    reject_log: list[tuple[int, str]] = field(default_factory=list)
    rejected_by_reason: dict[str, int] = field(default_factory=dict)
    already_ingested: bool = False


# a rejected row's reason by code; the lower code wins when several apply
_REASONS = ("", "bad timestamp", "bad price", "non-positive price", "missing field",
            "bad symbol", "bad exchange")


def _pair_reason(symbol: str, exchange: str) -> int:
    """The reject code of a stripped (symbol, exchange) pair, 0 if it is fine."""
    if not symbol or not exchange:
        return _REASONS.index("missing field")
    if symbol in (".", "..") or "/" in symbol or "\\" in symbol or "\0" in symbol:
        return _REASONS.index("bad symbol")      # the symbol must name one directory of the store
    if "\0" in exchange:
        return _REASONS.index("bad exchange")    # a numpy str array drops trailing NULs
    return 0


def _records(reader, size: int):
    """The reader's non-blank records with their file line numbers, ``size`` at a time."""
    rows, lines = [], []
    for row in reader:
        if row:                # csv.DictReader skips blank records too
            rows.append(row)
            lines.append(reader.line_num)
            if len(rows) == size:
                yield rows, lines
                rows, lines = [], []
    if rows:
        yield rows, lines


def _columns(rows: list[list[str]], width: int) -> list[tuple[str, ...]]:
    """The rows' cells by column; a short row's missing cells read as empty.

    csv.DictReader gives None for them, which every parse here rejects
    as it rejects an empty cell.  Cells beyond the header are dropped.
    """
    if set(map(len, rows)) != {width}:
        pad = [""] * width
        rows = [(row + pad)[:width] for row in rows]
    return list(zip(*rows))


def _plain_lines(block: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The start and end of each line of ``block``, a CRLF's CR left out; None unless plain.

    Plain lines hold no quote, NUL or byte >= 0x80, no CR but before a
    newline, and are no longer than ``csv.field_size_limit()``: on such
    lines ``csv.reader`` splits cells at every comma and nowhere else.
    """
    if b'"' in block or b"\0" in block or not block.isascii():
        return None
    data = np.frombuffer(block, np.uint8)
    cr = np.flatnonzero(data == ord("\r"))
    if len(cr) and (cr[-1] + 1 == len(data) or (data[cr + 1] != ord("\n")).any()):
        return None
    ends = np.flatnonzero(data == ord("\n"))
    if not block.endswith(b"\n"):
        ends = np.append(ends, len(data))
    starts = np.concatenate(([0], ends[:-1] + 1))
    nonblank = ends > starts
    ends[nonblank] -= data[ends[nonblank] - 1] == ord("\r")
    if (ends - starts).max() > csv.field_size_limit():
        return None
    return starts, ends


def _plain_cells(block: bytes, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The cells of a block of whole lines as (records, ``width``) starts and
    lengths, and each record's line index; None unless every line is plain and
    each non-blank one has ``width - 1`` commas."""
    lines = _plain_lines(block)
    if lines is None:
        return None
    records = np.flatnonzero(lines[1] > lines[0])          # blank lines are skipped
    starts, ends = (bound[records] for bound in lines)
    commas = np.flatnonzero(np.frombuffer(block, np.uint8) == ord(","))
    if len(commas) != len(records) * (width - 1):
        return None
    # sorted and as many as wanted: each line has its own iff each row lies in its line
    commas = commas.reshape(len(records), width - 1)
    if width > 1 and ((commas[:, 0] < starts).any() or (commas[:, -1] >= ends).any()):
        return None
    cell_starts = np.column_stack((starts, commas + 1))
    return cell_starts, np.column_stack((commas, ends)) - cell_starts, records


def _field_columns(header: list[str], fields: tuple[str, ...], path: Path) -> list[int]:
    """The header column of each field; a repeated name is its last column."""
    where = {name: i for i, name in enumerate(header)}
    for col in fields:
        if col not in where:
            raise ValueError(f"column {col!r} not found in {path}")
    return [where[col] for col in fields]


def _chunks(fh, fields: tuple[str, ...], path: Path):
    """A binary CSV file's records, ``CHUNK_ROWS`` at most at a time: the cells
    of each of ``fields`` as ``_Cells``, and the records' file line numbers.

    Plain chunks are split on their bytes; from the first chunk that is
    not, ``csv.reader`` reads the rest of the file.
    """
    size = CHUNK_ROWS
    head = fh.readline()
    line, offset = 0, 0                    # the lines and bytes taken on the byte path
    names = head.removeprefix(codecs.BOM_UTF8)       # as spreadsheet exports write
    if _plain_lines(names) is not None:
        text = names.removesuffix(b"\n").removesuffix(b"\r").decode()
        header = text.split(",") if text else []
        columns = _field_columns(header, fields, path)
        line, offset = 1, len(head)
        for block in iter(lambda: b"".join(islice(fh, size)), b""):
            cells = _plain_cells(block, len(header))
            if cells is None:
                break
            starts, lens, records = cells
            if len(records):
                yield ([_Cells(block, starts[:, c], lens[:, c]) for c in columns],
                       line + 1 + records)
            line += block.count(b"\n")
            offset += len(block)
        else:
            return
    fh.seek(offset)
    encoding = "utf-8" if offset else "utf-8-sig"     # a BOM only leads the file
    text = io.TextIOWrapper(fh, encoding=encoding, newline="")
    try:
        reader = csv.reader(text)
        if not line:
            header = next(reader, None) or []
            columns = _field_columns(header, fields, path)
        for rows, lines in _records(reader, size):
            cols = _columns(rows, len(header))
            yield [_Cells.of(cols[c]) for c in columns], line + np.array(lines)
    finally:
        text.detach()       # fh is the caller's to close


def _pair_codes(sym: _Cells, exch: _Cells, code_of) -> np.ndarray:
    """Each row's code of its raw (symbol, exchange) pair, from ``code_of(symbol, exchange)``.

    The rows whose cells are exact are grouped by one ``np.unique``, so
    ``code_of`` is asked once per distinct pair among them and once per
    other row.
    """
    exact = sym.exact & exch.exact
    rows = np.flatnonzero(exact)
    key = np.concatenate((sym.points[rows], exch.points[rows]), axis=1)
    _, first, inverse = np.unique(key.view(f"S{key.shape[1]}")[:, 0],
                                  return_index=True, return_inverse=True)
    code = np.empty(len(exact), np.int32)
    code[rows] = np.array([code_of(sym.raw(r), exch.raw(r)) for r in rows[first]],
                          np.int32)[inverse]
    for i in np.flatnonzero(~exact):
        code[i] = code_of(sym.raw(i), exch.raw(i))
    return code


def _write_replacing(path: Path, write) -> None:
    """Write ``path`` in a temporary file renamed over it: all or nothing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        write(fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class TickStore:
    """Tick store of immutable per-source files.

    Layout::

        root/
          ticks/<SYMBOL>/<YYYY-MM-DD>/<source sha256>.npz   ts, exchange, price
          sources/<source sha256>.json     accepted, rejected, rejected_by_reason,
                                           timestamp_format

    A source's record is written after all of its partition files, so it
    marks a completed ingest: re-ingesting the same content is a no-op
    returning the recorded counts, and reads see only the partitions of
    sources with a record.  An ingest that dies before its record is
    written leaves nothing visible and is redone by a retry, which
    rewrites the same files, so no row is stored twice.  Duplicate rows
    are kept (simultaneity is resolved at aggregation time).

    Only an ingest creates directories; a root that does not exist reads
    as an empty store.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        if (self.root / "manifest.json").exists():
            raise OSError(f"{self.root} holds a tick store in the old CSV layout "
                          "(manifest.json); ingest the source CSVs into a new store")

    # -- ingestion ----------------------------------------------------
    def ingest_csv(self, path: str | Path, schema: CsvSchema = CsvSchema()) -> IngestReport:
        """Ingest one CSV file; row-level failures reject the row, not the file."""
        path = Path(path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256()
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
            digest = digest.hexdigest()
            record_path = self.root / "sources" / f"{digest}.json"
            if record_path.exists():
                log.info("ingest %s: already ingested (hash match), skipping", path)
                return IngestReport(already_ingested=True, **json.loads(record_path.read_text()))
            fh.seek(0)
            report = IngestReport()
            fmt = None
            codes: dict[tuple[bytes, bytes], int] = {}   # raw (symbol, exchange) -> pair code
            pairs: list[tuple[str, str]] = []            # pair code -> stripped (symbol, exchange)
            pair_reasons: list[int] = []                 # pair code -> reject code

            def code_of(symbol: bytes, exchange: bytes) -> int:
                if (symbol, exchange) not in codes:
                    codes[symbol, exchange] = len(pairs)
                    pairs.append((symbol.decode().strip(), exchange.decode().strip()))
                    pair_reasons.append(_pair_reason(*pairs[-1]))
                return codes[symbol, exchange]

            counts = np.zeros(len(_REASONS), np.int64)
            kept = []                                    # per chunk: ts, price, pair code
            fields = (schema.time, schema.exchange, schema.symbol, schema.price)
            for (raw_ts, raw_exch, raw_sym, raw_price), lines in _chunks(fh, fields, path):
                if fmt is None:
                    # detect once per file from the first parseable row
                    fmt = _detect_format(raw_ts)
                    if fmt:
                        report.timestamp_format = fmt
                        log.info("ingest %s: detected %s timestamps", path, fmt)
                if fmt:
                    ts, bad_ts = _parse_times(raw_ts, fmt)
                else:
                    ts, bad_ts = np.zeros(len(lines), np.int64), np.ones(len(lines), bool)
                price, bad_price = _parse_prices(raw_price)
                code = _pair_codes(raw_sym, raw_exch, code_of)
                reason = np.select(          # codes 1-3 of _REASONS, else the pair's
                    [bad_ts, bad_price, ~np.isfinite(price) | (price <= 0)], [1, 2, 3],
                    np.array(pair_reasons, np.int8)[code])
                counts += np.bincount(reason, minlength=len(_REASONS))
                report.reject_log += [(int(lines[i]), _REASONS[reason[i]])
                                      for i in np.flatnonzero(reason)]
                keep = reason == 0
                kept.append((ts[keep], price[keep], code[keep]))

        report.accepted, report.rejected = int(counts[0]), int(counts[1:].sum())
        report.rejected_by_reason = {why: int(k) for why, k in zip(_REASONS[1:], counts[1:]) if k}
        if report.accepted:
            self._write_days(digest, pairs, *(np.concatenate(col) for col in zip(*kept)))
        record = {"accepted": report.accepted, "rejected": report.rejected,
                  "rejected_by_reason": report.rejected_by_reason,
                  "timestamp_format": report.timestamp_format}
        _write_replacing(record_path, lambda fh: fh.write(
            json.dumps(record, indent=1, sort_keys=True).encode()))
        if report.rejected:
            log.warning("ingest %s: rejected %d rows", path, report.rejected)
        return report

    def _write_days(self, digest: str, pairs: list[tuple[str, str]], ts: np.ndarray,
                    price: np.ndarray, code: np.ndarray) -> None:
        """One file per (symbol, UTC day) of the accepted rows, rows in file order."""
        symbols = sorted({sym for sym, _ in pairs})
        rank = {sym: i for i, sym in enumerate(symbols)}
        sym_rank = np.array([rank[sym] for sym, _ in pairs])[code]
        exchanges = np.array([exch for _, exch in pairs])
        exch_len = np.array([len(exch) for _, exch in pairs])
        day = ts // DAY_NS
        order = np.lexsort((day, sym_rank))          # stable
        cuts = np.flatnonzero((np.diff(sym_rank[order]) != 0) | (np.diff(day[order]) != 0))
        for rows in np.split(order, cuts + 1):
            # the dtype np.array gives the bucket's exchanges: <U{longest}
            exch = exchanges[code[rows]].astype(f"<U{exch_len[code[rows]].max()}")
            part = self._day_dir(symbols[sym_rank[rows[0]]], utc_date(int(ts[rows[0]])))
            _write_replacing(part / f"{digest}.npz", lambda fh: np.savez(
                fh, ts=ts[rows], exchange=exch, price=price[rows]))

    # -- reads --------------------------------------------------------
    def _day_dir(self, symbol: str, day: date) -> Path:
        return self.root / "ticks" / symbol / day.isoformat()

    def _committed(self, base: Path, pattern: str) -> list[Path]:
        """The partition files under ``base`` matching ``pattern`` whose source has a record."""
        sources = self.root / "sources"
        return [p for p in base.glob(pattern) if (sources / f"{p.stem}.json").exists()]

    def slice(self, symbol: str, utc_date: date) -> SymbolDaySlice:
        """Return the time-sorted symbol-day slice; empty if never ingested.

        A missing partition is a normal empty day, distinct from an
        unreadable store (which raises OSError).  Rows sharing a (timestamp,
        exchange) pair keep their file order, files their digest order.
        """
        parts = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=str), np.empty(0))]
        for part in sorted(self._committed(self._day_dir(symbol, utc_date), "*.npz")):
            with np.load(part) as z:
                parts.append((z["ts"], z["exchange"], z["price"]))
        ts, exch, price = (np.concatenate(col) for col in zip(*parts))
        order = np.lexsort((exch, ts))
        return SymbolDaySlice(symbol, utc_date, ts[order], exch[order], price[order])

    def symbols(self) -> list[str]:
        parts = self._committed(self.root / "ticks", "*/*/*.npz")
        return sorted({p.parent.parent.name for p in parts})

    def days(self, symbol: str) -> list[date]:
        parts = self._committed(self.root / "ticks" / symbol, "*/*.npz")
        return sorted({date.fromisoformat(p.parent.name) for p in parts})
