"""Tick ingestion and partitioned storage.

Raw trades arrive as CSV (one row per tick: timestamp, exchange, symbol,
price) and are persisted per (symbol, UTC day), one immutable ``.npz``
file for each source file that touches the day, written under a
temporary name and renamed into place.  Timestamps are stored as integer
epoch nanoseconds; input may be ISO-8601 UTC or epoch nanoseconds
(auto-detected per file, the detection is logged).
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

_ISO_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2})"
    r"(?:\.(\d+))?"
    r"(Z|z|[+-]\d{2}:?\d{2})?$"
)
_EPOCH_RE = re.compile(r"^\d{10,19}$")


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
    already_ingested: bool = False


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def utc_date(ts_ns: int) -> date:
    """UTC calendar day of an epoch-ns timestamp, in exact integer arithmetic."""
    return date.fromordinal(_EPOCH_ORDINAL + ts_ns // DAY_NS)


def _row_fields(row: dict, schema: CsvSchema) -> tuple[str, str, float] | str:
    """A row's (symbol, exchange, price), or the reason the row is rejected."""
    try:
        price = float(row[schema.price])
    except (ValueError, TypeError, KeyError):
        return "bad price"
    if not np.isfinite(price) or price <= 0:
        return "non-positive price"
    sym = (row.get(schema.symbol) or "").strip()
    exch = (row.get(schema.exchange) or "").strip()
    if not sym or not exch:
        return "missing field"
    if sym in (".", "..") or "/" in sym or "\\" in sym:
        return "bad symbol"      # the symbol names a directory of the store
    return sym, exch, price


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
          sources/<source sha256>.json     accepted, rejected, timestamp_format

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
        parse_ts = None
        buckets: dict[tuple[str, date], list[tuple[int, str, float]]] = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for col in (schema.time, schema.exchange, schema.symbol, schema.price):
                if reader.fieldnames is None or col not in reader.fieldnames:
                    raise ValueError(f"column {col!r} not found in {path}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    raw_ts = row[schema.time] or ""   # None: the row is too short
                    if parse_ts is None:
                        # detect once per file from the first parseable row
                        if _EPOCH_RE.match(raw_ts.strip()):
                            parse_ts = parse_epoch_ns
                            report.timestamp_format = "epoch_ns"
                        else:
                            parse_iso_ns(raw_ts)
                            parse_ts = parse_iso_ns
                            report.timestamp_format = "iso8601"
                        log.info("ingest %s: detected %s timestamps",
                                 path, report.timestamp_format)
                    ts = parse_ts(raw_ts)
                    if not -2 ** 63 <= ts < 2 ** 63:
                        raise ValueError(f"{raw_ts!r} is beyond int64 nanoseconds")
                except (ValueError, KeyError, TypeError):
                    fields = "bad timestamp"
                else:
                    fields = _row_fields(row, schema)
                if isinstance(fields, str):
                    report.rejected += 1
                    report.reject_log.append((lineno, fields))
                    continue
                sym, exch, price = fields
                buckets.setdefault((sym, utc_date(ts)), []).append((ts, exch, price))
                report.accepted += 1

        for (sym, day), rows in sorted(buckets.items()):
            ts, exch, price = zip(*rows)
            _write_replacing(self._day_dir(sym, day) / f"{digest}.npz", lambda fh: np.savez(
                fh, ts=np.array(ts, dtype=np.int64), exchange=np.array(exch),
                price=np.array(price)))
        record = {"accepted": report.accepted, "rejected": report.rejected,
                  "timestamp_format": report.timestamp_format}
        _write_replacing(record_path, lambda fh: fh.write(
            json.dumps(record, indent=1, sort_keys=True).encode()))
        if report.rejected:
            log.warning("ingest %s: rejected %d rows", path, report.rejected)
        return report

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
