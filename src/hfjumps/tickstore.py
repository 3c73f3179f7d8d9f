"""Tick ingestion and partitioned storage.

Raw trades arrive as CSV (one row per tick: timestamp, exchange, symbol,
price) and are persisted per (symbol, UTC day), one immutable ``.npz``
file for each source file that touches the day, written under a
temporary name and renamed into place.  Timestamps are stored as integer
epoch nanoseconds; input may be ISO-8601 UTC or epoch nanoseconds
(auto-detected per file from its first parseable timestamp, the
detection is logged).

A file is read as UTF-8 whatever the locale, a leading byte order mark
dropped, ``CHUNK_ROWS`` lines at a time, cut from 64 KiB reads.  A chunk
of plain lines is split into cells by numpy on its bytes: plain means no
quote, NUL, byte >= 0x80 or CR outside a CRLF, no line longer than
``csv.field_size_limit()``, and on every non-blank line one comma fewer
than the header has names.  From the first chunk that is not plain (the
header included) to the end of the file, ``csv.reader`` reads the text,
since a quoted cell can span lines; line numbers carry on.  Blank lines
are skipped either way.

Both front ends hand each chunk's columns to one parse as the chunk's
bytes and each cell's start and length (``_Cells``); each parse reads
only the bytes it needs.  Timestamps are read per cell length, each byte
at its offset from the cells' starts: epoch stamps that are 10-19 ASCII
digits are summed digit by digit, and ISO stamps of the shape
``YYYY-MM-DD[T ]HH:MM:SS[.f...][Z|z]`` are checked byte by byte, their
fields summed from their digits and their days counted from tables.
Prices go through ``float`` on their bytes as ``S``.  (symbol, exchange)
pairs are keyed by their bytes read as words: rows holding a pair that
was frequent in the chunk before are found by comparing keys, the rest
grouped by one ``np.unique``.  Any other timestamp (an offset,
surrounding blanks, an impossible date, a value at the ends of int64
nanoseconds) goes through the row-level parser, ``parse_iso_ns`` or
``parse_epoch_ns``, so bulk and row parse accept and reject the same
cells; a price ``float`` refuses as bytes is read again as text.  The
reject rules are masks, and only int64, float64 and code arrays outlive
a chunk.
"""
from __future__ import annotations

import codecs
import csv
import functools
import hashlib
import io
import json
import logging
import os
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .catalog import DAY_NS, EPOCH_ORDINAL, parse_epoch_ns, parse_iso_ns, utc_date

log = logging.getLogger(__name__)

CHUNK_ROWS = 2048         # records parsed per bulk step; bounds the parse's memory

# the longest cell the bulk parse reads; a longer one is read whole where it is used
_BULK_WIDTH = 32
# by word j and cell length up to _BULK_WIDTH: the mask of the cell's bytes in
# its bytes 8 j to 8 j + 7 read as a little-endian word
_WORD_MASKS = np.array([[(1 << 8 * min(max(n - j, 0), 8)) - 1 for n in range(_BULK_WIDTH + 1)]
                        for j in range(0, _BULK_WIDTH, 8)], np.uint64)
# YYYY-MM-DD?HH:MM:SS byte by byte: the least byte each offset takes, and how far
# above it the greatest lies; the ?, a T or a space, is checked on its own
_ISO_LEAST = np.frombuffer(b"0000-00-00\x0000:00:00", np.uint8)[:, None]
_ISO_SPAN = np.frombuffer(b"9999-19-39\xff29:59:59", np.uint8)[:, None] - _ISO_LEAST
# the year, MMDD, hour, second of the day and ns of the fraction, each the sum
# of a cell's digits weighted by one row, digit k by column k
_ISO_WEIGHTS = np.zeros((5, _BULK_WIDTH))
_ISO_WEIGHTS[0, [0, 1, 2, 3]] = _ISO_WEIGHTS[1, [5, 6, 8, 9]] = 1000, 100, 10, 1
_ISO_WEIGHTS[2, [11, 12]] = 10, 1
_ISO_WEIGHTS[3, [11, 12, 14, 15, 17, 18]] = 36000, 3600, 600, 60, 10, 1
_ISO_WEIGHTS[4, 20:29] = 10 ** np.arange(8, -1, -1)      # digits past the ninth truncate


@functools.cache
def _calendar() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """By year 0-9999: whether it is a leap year, and the days from 1970-01-01 to
    its first day; by 10,000 x leap + MMDD: the day's index in its year, -1 if
    there is no such day.  As ``date.toordinal`` counts.  Built on first use: a
    process that reads no ISO stamp does not hold it."""
    year = np.arange(10_000)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    y = year - 1
    jan_1 = 365 * y + y // 4 - y // 100 + y // 400 + 1 - EPOCH_ORDINAL
    day_of_year = np.full(20_000, -1)
    for is_leap in (0, 1):
        lengths = (31, 28 + is_leap, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
        mmdd = [10_000 * is_leap + 100 * month + day
                for month, n in enumerate(lengths, 1) for day in range(1, n + 1)]
        day_of_year[mmdd] = np.arange(len(mmdd))
    return leap, jan_1, day_of_year
# whole seconds strictly between these are in range as int64 ns
_S_MIN, _S_MAX = -2 ** 63 // 10 ** 9, (2 ** 63 - 1) // 10 ** 9


class _Cells:
    """One column of a chunk: where each cell's UTF-8 bytes start in ``data``, and its length.

    Nothing is copied up front: each parse reads the bytes it needs with
    ``head``.  ``words()`` holds each cell's first bytes, up to
    ``_BULK_WIDTH``, as little-endian words, and ``text()`` the same as
    ``S``.  ``exact`` marks the cells those hold whole: not cut at
    ``_BULK_WIDTH`` and free of NUL, which ``S`` drops at a cell's end and
    a word cannot tell from its padding.  ``raw(i)`` is any cell whole.
    """

    def __init__(self, data: bytes, starts: np.ndarray, lens: np.ndarray):
        """``data`` holds ``_BULK_WIDTH`` bytes or more past the end of the last cell."""
        self.data, self.starts, self.lens = data, starts, lens
        self.exact = lens <= _BULK_WIDTH

    @classmethod
    def of(cls, cells) -> _Cells:
        """The form of text cells."""
        raw = [cell.encode() for cell in cells]
        lens = np.fromiter(map(len, raw), np.intp, len(raw))
        column = cls(b"".join(raw) + bytes(_BULK_WIDTH), np.cumsum(lens) - lens, lens)
        column.exact &= ["\0" not in cell for cell in cells]
        return column

    def __len__(self) -> int:
        return len(self.lens)

    def raw(self, i: int) -> bytes:
        return self.data[self.starts[i]:self.starts[i] + self.lens[i]]

    def cell(self, i: int) -> str:
        return self.raw(i).decode()

    def head(self, width: int, rows=slice(None)) -> np.ndarray:
        """(cells, ``width``): the first ``width`` <= ``_BULK_WIDTH`` bytes from the
        start of each cell of ``rows``, read on past its end."""
        # width bytes from each offset; indexing copies its rows faster than take
        at = np.ndarray(len(self.data) - width + 1, f"V{width}", self.data, strides=(1,))
        return at[self.starts[rows]].view(np.uint8).reshape(-1, width)

    def words(self) -> np.ndarray:
        """(cells, words): word ``j`` holds a cell's bytes ``8 j`` to ``8 j + 7``,
        0 past its end; as many words as the longest cell, up to ``_BULK_WIDTH``
        bytes, needs."""
        k = -(-min(int(self.lens.max(initial=1)), _BULK_WIDTH) // 8)
        words = self.head(8 * k).view("<u8")
        lens = np.minimum(self.lens, _BULK_WIDTH)
        for j in range(k):
            words[:, j] &= _WORD_MASKS[j].take(lens)
        return words

    def text(self) -> np.ndarray:
        """``words()`` as ``S``: a cell's bytes but any NULs at its end."""
        words = self.words()
        return words.view(f"S{words.itemsize * words.shape[1]}")[:, 0]


def _groups(cells: _Cells, shortest: int, longest: int):
    """For each cell length from ``shortest`` to ``longest``: the length, the rows
    of that length (a slice if they are all), and their bytes as (length, rows),
    byte ``k`` of each in row ``k``."""
    lens = cells.lens
    counts = np.bincount(np.minimum(lens, longest + 1), minlength=longest + 2)
    for length in np.flatnonzero(counts[shortest:longest + 1]).tolist():
        length += shortest
        rows = slice(None) if counts[length] == len(lens) else np.flatnonzero(lens == length)
        yield length, rows, np.ascontiguousarray(cells.head(length, rows).T)


def _digits(b: np.ndarray) -> np.ndarray:
    """Bytes less ``ord("0")``: a digit reads its value, any other byte 10 or more."""
    return b - np.uint8(ord("0"))            # uint8: below "0" wraps high


def _epoch_bulk(cells: _Cells) -> tuple[np.ndarray, np.ndarray]:
    """Epoch ns of the cells that are 10-19 ASCII digits within int64, and which those are."""
    ts, ok = np.zeros(len(cells), np.int64), np.zeros(len(cells), bool)
    for length, rows, b in _groups(cells, 10, 19):
        d = _digits(b)
        # 19 digits stay below 2**64
        value = (d * 10 ** np.arange(length - 1, -1, -1, dtype=np.uint64)[:, None]).sum(0)
        good = (d < 10).all(0) & (value < 2 ** 63)
        ts[rows], ok[rows] = np.where(good, value, 0), good
    return ts, ok


def _iso_bulk(cells: _Cells) -> tuple[np.ndarray, np.ndarray]:
    """Epoch ns of the cells shaped ``YYYY-MM-DD[T ]HH:MM:SS[.f...][Z|z]``, and which those are.

    Read per cell length, at fixed offsets.  Fractional digits past the
    ninth truncate, as in ``parse_iso_ns``.  A date or time ``datetime``
    refuses (Feb 30, hour 24, second 60) is not taken; the rest of the
    group is.  Days are counted from the ``_calendar`` tables: numpy's cast
    of ``S`` cells to ``datetime64`` is no way round, since in numpy 2.4 a
    refused date among a few hundred cells can crash the process.
    """
    ts, ok = np.zeros(len(cells), np.int64), np.zeros(len(cells), bool)
    leap, jan_1, day_of_year = _calendar()
    for length, rows, b in _groups(cells, 19, _BULK_WIDTH):
        good = ((b[:19] - _ISO_LEAST) <= _ISO_SPAN).all(0)      # uint8: below the least wraps
        good &= (b[10] == ord("T")) | (b[10] == ord(" "))
        d = _digits(b)
        if length > 19:
            z = (b[-1] == ord("Z")) | (b[-1] == ord("z"))
            d[-1, z] = 0
            if length == 20:
                good &= z
            else:       # a dot, then digits, the last of which may be a Z instead
                good &= (b[19] == ord(".")) & (d[20:] < 10).all(0) & ~(z & (length == 21))
        # each sum is an integer below 2**53, so exact in float64
        year, mmdd, hour, second, frac = (_ISO_WEIGHTS[:, :length] @ d).astype(np.int64)
        day = day_of_year.take(mmdd + 10_000 * leap.take(year, mode="clip"), mode="clip")
        secs = (jan_1.take(year, mode="clip") + day) * 86_400 + second
        good &= (day >= 0) & (hour < 24) & (secs > _S_MIN) & (secs < _S_MAX)
        ts[rows], ok[rows] = np.where(good, secs * 10 ** 9 + frac, 0), good
    return ts, ok


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
    raw = cells.text().tolist()
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


def _newlines(block: bytes) -> np.ndarray:
    """The offset of each newline in ``block``."""
    return np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n"))


def _line_blocks(fh, size: int):
    """The rest of a binary file, ``size`` lines at a time (the last block may
    hold fewer), each block with the offsets of its newlines."""
    data, newlines = b"", np.empty(0, np.intp)
    while True:
        piece = fh.read(1 << 16)
        data, newlines = data + piece, np.concatenate((newlines, _newlines(piece) + len(data)))
        start, whole = 0, len(newlines) // size * size
        for first in range(0, whole, size):
            stop = int(newlines[first + size - 1]) + 1
            yield data[start:stop], newlines[first:first + size] - start
            start = stop
        if not piece:
            if start < len(data):
                yield data[start:], newlines[whole:] - start
            return
        data, newlines = data[start:], newlines[whole:] - start


def _plain_lines(block: bytes, newlines: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The start and end of each line of ``block``, a CRLF's CR left out; None unless plain.

    Plain lines hold no quote, NUL or byte >= 0x80, no CR but before a
    newline, and are no longer than ``csv.field_size_limit()``: on such
    lines ``csv.reader`` splits cells at every comma and nowhere else.
    """
    if b'"' in block or b"\0" in block or not block.isascii():
        return None
    data = np.frombuffer(block, np.uint8)
    ends = newlines if block.endswith(b"\n") else np.append(newlines, len(data))
    starts = np.concatenate(([0], ends[:-1] + 1))
    if b"\r" in block:
        cr = np.flatnonzero(data == ord("\r"))
        if cr[-1] + 1 == len(data) or (data[cr + 1] != ord("\n")).any():
            return None
        ends = ends - ((ends > starts) & (data[ends - 1] == ord("\r")))
    if (ends - starts).max() > csv.field_size_limit():
        return None
    return starts, ends


def _plain_cells(block: bytes, newlines: np.ndarray,
                 width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The cells of a block of whole lines as (``width``, records) starts and
    lengths, and each record's line index; None unless every line is plain and
    each non-blank one has ``width - 1`` commas."""
    lines = _plain_lines(block, newlines)
    if lines is None:
        return None
    records = np.flatnonzero(lines[1] > lines[0])          # blank lines are skipped
    starts, ends = (bound[records] for bound in lines)
    commas = np.flatnonzero(np.frombuffer(block, np.uint8) == ord(","))
    if len(commas) != len(records) * (width - 1):
        return None
    # sorted and as many as wanted: each line has its own iff each row lies in its line
    commas = commas.reshape(len(records), width - 1).T
    if width > 1 and ((commas[0] < starts).any() or (commas[-1] >= ends).any()):
        return None
    cell_starts = np.vstack((starts, commas + 1))
    return cell_starts, np.vstack((commas, ends)) - cell_starts, records


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
    if _plain_lines(names, _newlines(names)) is not None:
        text = names.removesuffix(b"\n").removesuffix(b"\r").decode()
        header = text.split(",") if text else []
        columns = _field_columns(header, fields, path)
        line, offset = 1, len(head)
        for block, newlines in _line_blocks(fh, size):
            cells = _plain_cells(block, newlines, len(header))
            if cells is None:
                break
            starts, lens, records = cells
            if len(records):
                data = block + bytes(_BULK_WIDTH)
                yield ([_Cells(data, starts[c], lens[c]) for c in columns],
                       line + 1 + records)
            line += len(newlines)
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


class _Pairs:
    """The (symbol, exchange) pairs of one file, coded in the order they first appear.

    ``names`` holds each code's stripped (symbol, exchange), ``reasons``
    its reject code.
    """

    def __init__(self):
        self._codes: dict[tuple[bytes, bytes], int] = {}      # raw (symbol, exchange) -> code
        self.names: list[tuple[str, str]] = []
        self.reasons: list[int] = []
        self._raw: list[tuple[bytes, bytes]] = []       # code -> raw (symbol, exchange)
        self._common: list[tuple[bytes, bytes]] = []    # the last chunk's frequent raw pairs

    def code(self, symbol: bytes, exchange: bytes) -> int:
        if (symbol, exchange) not in self._codes:
            self._codes[symbol, exchange] = len(self.names)
            self._raw.append((symbol, exchange))
            self.names.append((symbol.decode().strip(), exchange.decode().strip()))
            self.reasons.append(_pair_reason(*self.names[-1]))
        return self._codes[symbol, exchange]

    def of(self, sym: _Cells, exch: _Cells) -> np.ndarray:
        """Each row's code.

        The rows whose cells are exact are keyed by their words.  Those
        holding one of the pairs frequent in the last chunk are found by
        comparing keys, and the rest grouped by one ``np.unique``; so
        ``code`` is asked once per new pair among them and once per other row.
        """
        exact = sym.exact & exch.exact
        words = sym.words(), exch.words()
        widths = [8 * w.shape[1] for w in words]
        key = np.ascontiguousarray(np.concatenate(words, axis=1).T)     # (words, rows)
        code = np.full(len(exact), -1, np.int32)
        common = [pair for pair in self._common
                  if all(len(cell) <= width for cell, width in zip(pair, widths))]
        if common:
            want = np.frombuffer(b"".join(cell.ljust(width, b"\0") for pair in common
                                          for cell, width in zip(pair, widths)), "<u8")
            for pair, match in zip(common, (key == want.reshape(len(common), -1, 1)).all(1)):
                code[match] = self._codes[pair]
        rows = np.flatnonzero(exact & (code < 0))
        if len(rows):
            rest = np.ascontiguousarray(key[:, rows].T)
            _, first, inverse = np.unique(rest.view(f"V{8 * len(key)}")[:, 0],
                                          return_index=True, return_inverse=True)
            code[rows] = np.array([self.code(sym.raw(r), exch.raw(r)) for r in rows[first]],
                                  np.int32)[inverse]
        for i in np.flatnonzero(~exact):
            code[i] = self.code(sym.raw(i), exch.raw(i))
        # a comparison costs about a sixteenth of the sort it can spare
        counts = np.bincount(code[exact], minlength=len(self.names))
        self._common = [self._raw[c]
                        for c in np.flatnonzero((counts > 0) & (counts * 16 >= exact.sum()))]
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
            pairs = _Pairs()
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
                code = pairs.of(raw_sym, raw_exch)
                # codes 1-3 of _REASONS, else the pair's; the lower code wins
                reason = np.array(pairs.reasons, np.int8)[code]
                reason[~np.isfinite(price) | (price <= 0)] = 3
                reason[bad_price] = 2
                reason[bad_ts] = 1
                counts += np.bincount(reason, minlength=len(_REASONS))
                report.reject_log += [(int(lines[i]), _REASONS[reason[i]])
                                      for i in np.flatnonzero(reason)]
                keep = reason == 0
                kept.append((ts[keep], price[keep], code[keep]))

        report.accepted, report.rejected = int(counts[0]), int(counts[1:].sum())
        report.rejected_by_reason = {why: int(k) for why, k in zip(_REASONS[1:], counts[1:]) if k}
        if report.accepted:
            self._write_days(digest, pairs.names, *(np.concatenate(col) for col in zip(*kept)))
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
