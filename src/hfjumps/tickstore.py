"""Tick ingestion and partitioned storage.

Raw trades arrive as CSV (one row per tick: timestamp, exchange, symbol,
price) and are persisted per (symbol, UTC day), one immutable ``.npz``
file for each source file that touches the day, written under a
temporary name and renamed into place.  Timestamps are stored as integer
epoch nanoseconds; input may be ISO-8601 UTC or epoch nanoseconds
(auto-detected per file from its first parseable timestamp, the
detection is logged).

A file is parsed column-wise, ``CHUNK_ROWS`` records at a time.  Each
chunk's cells are converted in bulk: epoch stamps that are 10-19 ASCII
digits through ``astype(int64)``, ISO stamps of the shape
``YYYY-MM-DD[T ]HH:MM:SS[.f...][Z|z]`` through ``datetime64[s]`` plus
integer nanoseconds, prices through ``float``.  Any other cell (an
offset, surrounding blanks, an impossible date, a value at the ends of
int64 nanoseconds) goes through the row-level parser, ``parse_iso_ns`` or
``parse_epoch_ns``, so bulk and row parse accept and reject the same
cells.  The reject rules are masks, and only int64, float64 and code
arrays outlive a chunk.
"""
from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

DAY_NS = 86_400 * 10 ** 9
CHUNK_ROWS = 2048         # records parsed per bulk step; bounds the parse's memory

# ASCII digits only: int() also reads other scripts' digits
_ISO_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2})"
    r"(?:\.(\d+))?"
    r"(Z|z|[+-]\d{2}:?\d{2})?$", re.ASCII
)
_EPOCH_RE = re.compile(r"^\d{10,19}$", re.ASCII)


def parse_iso_ns(text: str) -> int:
    """Parse an ISO-8601 UTC timestamp to epoch nanoseconds.

    Fractional digits beyond nanosecond precision are truncated, not
    rounded, so re-ingesting a file can never shift a tick across a
    bin or day boundary.
    """
    m = _ISO_RE.match(text.strip())
    if not m:
        raise ValueError(f"unparseable timestamp {text!r}")
    y, mo, d, hh, mm, ss = (int(m.group(i)) for i in range(1, 7))
    frac = m.group(7) or ""
    offset = m.group(8)
    ns = int(frac[:9].ljust(9, "0")) if frac else 0
    dt = datetime(y, mo, d, hh, mm, ss, tzinfo=timezone.utc)
    epoch_s = int(dt.timestamp())
    if offset and offset not in ("Z", "z"):
        sign = 1 if offset[0] == "+" else -1
        off = offset[1:].replace(":", "")
        epoch_s -= sign * (int(off[:2]) * 3600 + int(off[2:]) * 60)
    return epoch_s * 10 ** 9 + ns


def parse_epoch_ns(text: str) -> int:
    t = text.strip()
    if not _EPOCH_RE.match(t):
        raise ValueError(f"not an epoch-ns timestamp: {text!r}")
    return int(t)


# the bulk parse reads a chunk's cells as fixed-width rows of code points, as
# wide as the longest cell; a cell longer than this takes the row path
_BULK_WIDTH = 32
_INT64_MAX = str(2 ** 63 - 1)
# the non-digits of YYYY-MM-DD?HH:MM:SS by position; the ? is a T or a space
_ISO_SEPARATORS = {4: "-", 7: "-", 13: ":", 16: ":"}
# whole seconds strictly between these are in range as int64 ns
_S_MIN, _S_MAX = -2 ** 63 // 10 ** 9, (2 ** 63 - 1) // 10 ** 9


def _code_points(cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells as fixed-width text, its (n, width) code points and the cells' lengths.

    Code points past a cell's end are 0.  A cell longer than the width
    is truncated; its length says so.
    """
    lens = np.fromiter(map(len, cells), np.intp, len(cells))
    width = int(min(max(lens.max(), 1), _BULK_WIDTH))
    text = np.array(cells, dtype=f"<U{width}")
    return text, text.view(np.uint32).reshape(len(cells), width), lens


def _digit_counts(points: np.ndarray) -> np.ndarray:
    """ASCII digits per row; with the row's length it says whether all of it is digits."""
    return (points - np.uint32(ord("0")) < 10).sum(1)    # uint32: below "0" wraps high


def _epoch_bulk(cells) -> tuple[np.ndarray, np.ndarray]:
    """Epoch ns of the cells that are 10-19 ASCII digits within int64, and which those are."""
    text, points, lens = _code_points(cells)
    ok = (lens >= 10) & (lens <= 19) & (_digit_counts(points) == lens)
    ok &= ~((lens == 19) & (text > _INT64_MAX))
    ts = np.zeros(len(cells), np.int64)
    ts[ok] = text[ok].astype(np.int64)
    return ts, ok


def _iso_bulk(cells) -> tuple[np.ndarray, np.ndarray]:
    """Epoch ns of the cells shaped ``YYYY-MM-DD[T ]HH:MM:SS[.f...][Z|z]``, and which those are.

    Fractional digits past the ninth truncate, as in ``parse_iso_ns``.
    A date or time numpy refuses (Feb 30, hour 24, second 60) is not
    taken; the rest of the group is.
    """
    text, points, lens = _code_points(cells)
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
    # the non-digits checked above are the only ones: all other code points are digits
    ok &= lens - _digit_counts(points) == 5 + (end > 19) + z
    if not ok.any():
        return ts, ok
    frac = points[:, 20:29].astype(np.int64) - ord("0")
    frac[np.arange(20, 20 + frac.shape[1]) >= end[:, None]] = 0
    frac_ns = frac @ 10 ** np.arange(8, 8 - frac.shape[1], -1)
    secs, taken = _iso_seconds(text[ok].astype("<U19"))
    rows = np.flatnonzero(ok)
    inside = taken & (secs > _S_MIN) & (secs < _S_MAX)
    ok[rows[~inside]] = False
    ts[rows[inside]] = secs[inside] * 10 ** 9 + frac_ns[rows[inside]]
    return ts, ok


def _iso_seconds(text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of ``YYYY-MM-DD?HH:MM:SS`` cells, and which ones numpy reads.

    numpy refuses a whole group for one bad date, so a refused group is
    halved until only the refused cells are left out.
    """
    try:
        return text.astype("datetime64[s]").astype(np.int64), np.ones(len(text), bool)
    except ValueError:
        if len(text) == 1:
            return np.zeros(1, np.int64), np.zeros(1, bool)
    half = len(text) // 2
    (head, head_ok), (tail, tail_ok) = _iso_seconds(text[:half]), _iso_seconds(text[half:])
    return np.concatenate((head, tail)), np.concatenate((head_ok, tail_ok))


# timestamp format name -> (row parser, bulk parser)
_FORMATS = {"epoch_ns": (parse_epoch_ns, _epoch_bulk), "iso8601": (parse_iso_ns, _iso_bulk)}


def _detect_format(cells) -> str | None:
    """The format of the first cell a row parser reads, epoch first; None if none."""
    for raw in cells:
        for fmt, (parse, _) in _FORMATS.items():
            try:
                parse(raw)
            except ValueError:
                continue
            return fmt
    return None


def _parse_times(cells, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Epoch ns of each cell in format ``fmt``, and a mask of the cells that are none.

    The bulk parser takes what it can; every other cell goes through the
    row parser and must land within int64 nanoseconds.
    """
    parse, bulk = _FORMATS[fmt]
    ts, ok = bulk(cells)
    bad = np.zeros(len(cells), bool)
    for i in np.flatnonzero(~ok):
        try:
            value = parse(cells[i])
        except ValueError:
            value = None
        if value is not None and -2 ** 63 <= value < 2 ** 63:
            ts[i] = value
        else:
            bad[i] = True
    return ts, bad


def _parse_prices(cells) -> tuple[np.ndarray, np.ndarray]:
    """Each cell as ``float`` reads it, and a mask of the cells it cannot read (NaN)."""
    n = len(cells)
    try:
        return np.fromiter(map(float, cells), np.float64, n), np.zeros(n, bool)
    except ValueError:
        pass
    prices, bad = np.full(n, np.nan), np.zeros(n, bool)
    for i, cell in enumerate(cells):
        try:
            prices[i] = float(cell)
        except ValueError:
            bad[i] = True
    return prices, bad


@dataclass
class SymbolDaySlice:
    """All ticks of one symbol on one UTC day, time-sorted, all exchanges."""

    symbol: str
    utc_date: date
    timestamps_ns: np.ndarray
    exchanges: list[str]
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
    source: str
    accepted: int = 0
    rejected: int = 0
    timestamp_format: str = ""
    reject_log: list[tuple[int, str]] = field(default_factory=list)
    rejected_by_reason: dict[str, int] = field(default_factory=dict)
    already_ingested: bool = False


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def utc_date(ts_ns: int) -> date:
    """UTC calendar day of an epoch-ns timestamp, in exact integer arithmetic."""
    return date.fromordinal(_EPOCH_ORDINAL + ts_ns // DAY_NS)


def day_start_ns(day: date) -> int:
    """Epoch-ns of a UTC day's midnight, the inverse of ``utc_date``."""
    return (day.toordinal() - _EPOCH_ORDINAL) * DAY_NS


# a rejected row's reason by code; the lower code wins when several apply
_REASONS = ("", "bad timestamp", "bad price", "non-positive price", "missing field",
            "bad symbol")


def _pair_reason(symbol: str, exchange: str) -> int:
    """The reject code of a stripped (symbol, exchange) pair, 0 if it is fine."""
    if not symbol or not exchange:
        return _REASONS.index("missing field")
    if symbol in (".", "..") or "/" in symbol or "\\" in symbol:
        return _REASONS.index("bad symbol")      # the symbol names a directory of the store
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
    returning the recorded counts.  An ingest that dies before its record
    is written is redone by a retry, which rewrites the same files, so no
    row is stored twice.  Duplicate rows are kept (simultaneity is
    resolved at aggregation time).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        if (self.root / "manifest.json").exists():
            raise OSError(f"{self.root} holds a tick store in the old CSV layout "
                          "(manifest.json); ingest the source CSVs into a new store")
        (self.root / "ticks").mkdir(parents=True, exist_ok=True)

    # -- ingestion ----------------------------------------------------
    def ingest_csv(self, path: str | Path, schema: CsvSchema = CsvSchema()) -> IngestReport:
        """Ingest one CSV file; row-level failures reject the row, not the file."""
        path = Path(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        record_path = self.root / "sources" / f"{digest}.json"
        if record_path.exists():
            log.info("ingest %s: already ingested (hash match), skipping", path)
            return IngestReport(source=str(path), already_ingested=True,
                                **json.loads(record_path.read_text()))

        report = IngestReport(source=str(path))
        fmt = None
        codes: dict[tuple[str, str], int] = {}   # raw (symbol, exchange) cells -> pair code
        pairs: list[tuple[str, str]] = []        # pair code -> stripped (symbol, exchange)
        pair_reasons: list[int] = []             # pair code -> reject code
        counts = np.zeros(len(_REASONS), np.int64)
        kept = []                                # per chunk: ts, price, pair code
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None) or []
            where = {name: i for i, name in enumerate(header)}   # a repeated name: the last
            fields = (schema.time, schema.exchange, schema.symbol, schema.price)
            for col in fields:
                if col not in where:
                    raise ValueError(f"column {col!r} not found in {path}")
            for rows, lines in _records(reader, CHUNK_ROWS):
                columns = _columns(rows, len(header))
                raw_ts, raw_exch, raw_sym, raw_price = (columns[where[col]] for col in fields)
                n = len(rows)
                if fmt is None:
                    # detect once per file from the first parseable row
                    fmt = _detect_format(raw_ts)
                    if fmt:
                        report.timestamp_format = fmt
                        log.info("ingest %s: detected %s timestamps", path, fmt)
                if fmt:
                    ts, bad_ts = _parse_times(raw_ts, fmt)
                else:
                    ts, bad_ts = np.zeros(n, np.int64), np.ones(n, bool)
                price, bad_price = _parse_prices(raw_price)
                raw_pairs = list(zip(raw_sym, raw_exch))
                for pair in dict.fromkeys(raw_pairs):
                    if pair not in codes:
                        codes[pair] = len(pairs)
                        pairs.append((pair[0].strip(), pair[1].strip()))
                        pair_reasons.append(_pair_reason(*pairs[-1]))
                code = np.fromiter(map(codes.__getitem__, raw_pairs), np.int32, n)
                reason = np.select(          # codes 1-3 of _REASONS, else the pair's
                    [bad_ts, bad_price, ~np.isfinite(price) | (price <= 0)], [1, 2, 3],
                    np.array(pair_reasons, np.int8)[code])
                counts += np.bincount(reason, minlength=len(_REASONS))
                report.reject_log += [(lines[i], _REASONS[reason[i]])
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

    def slice(self, symbol: str, utc_date: date) -> SymbolDaySlice:
        """Return the time-sorted symbol-day slice; empty if never ingested.

        A missing partition is a normal empty day, distinct from an
        unreadable store (which raises OSError).  Rows sharing a (timestamp,
        exchange) pair keep their file order, files their digest order.
        """
        parts = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=str), np.empty(0))]
        for part in sorted(self._day_dir(symbol, utc_date).glob("*.npz")):
            with np.load(part) as z:
                parts.append((z["ts"], z["exchange"], z["price"]))
        ts, exch, price = (np.concatenate(col) for col in zip(*parts))
        order = np.lexsort((exch, ts))
        return SymbolDaySlice(symbol, utc_date, ts[order], exch[order].tolist(),
                              price[order])

    def symbols(self) -> list[str]:
        base = self.root / "ticks"
        return sorted(p.name for p in base.iterdir() if p.is_dir())

    def days(self, symbol: str) -> list[date]:
        parts = (self.root / "ticks" / symbol).glob("*/*.npz")
        return sorted({date.fromisoformat(p.parent.name) for p in parts})
